package cluster

import (
	"time"

	"repro/internal/server"
)

// Health probing. The prober reuses the exact probe path external
// health checkers use (`gptpu-serve -check`): a MsgPing round trip
// whose MsgPong payload carries the daemon's drain state and shard
// identity. Probe outcomes drive the member state machine:
//
//	ok       → readmit (healthy, strikes reset)
//	draining → draining (out of the ring, no strikes — the daemon is
//	           behaving correctly, it just asked for no new work)
//	fail     → strike   (suspect, then dead at deadStrikes)
//	timeout  → strike   (plus the member's connection is dropped, which
//	           also unblocks the stuck probe goroutine)
//
// Re-admission is automatic and immediate: the next successful probe
// puts the member back in the ring. The affinity table deliberately
// keeps failed-over keys on the replicas that absorbed them, so
// re-admission never causes a second round of cold weight caches.

// startProber launches the background probe loop (no-op when
// ProbeInterval is negative — tests call ProbeNow directly).
func (r *Router) startProber() {
	if r.cfg.ProbeInterval < 0 {
		return
	}
	r.mu.Lock()
	if r.probeStop != nil || r.probeOff {
		r.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.probeStop, r.probeDone = stop, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		r.ProbeNow()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.ProbeNow()
			}
		}
	}()
}

// stopProber halts the background probe loop for good and waits it
// out.
func (r *Router) stopProber() {
	r.mu.Lock()
	stop, done := r.probeStop, r.probeDone
	r.probeStop, r.probeDone = nil, nil
	r.probeOff = true
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ProbeNow probes every member once, synchronously (the background
// loop calls it on each tick; tests call it directly for deterministic
// state transitions).
func (r *Router) ProbeNow() {
	for _, m := range r.set.all() {
		r.probeMember(m)
	}
	r.updateStateGauges()
}

// probeMember runs one health probe with a timeout. A timed-out probe
// drops the member's connection, which both strikes the member and
// fails the in-flight Health call so its goroutine exits.
func (r *Router) probeMember(m *member) {
	cli, err := m.conn()
	if err != nil {
		m.strike(deadStrikes)
		r.met.probes.With("fail").Inc()
		return
	}
	type result struct {
		h   server.HealthInfo
		err error
	}
	ch := make(chan result, 1)
	go func() {
		h, err := cli.Health()
		ch <- result{h, err}
	}()
	timer := time.NewTimer(probeTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		switch {
		case res.err != nil:
			st := m.strike(deadStrikes)
			m.dropConn(cli)
			r.met.probes.With("fail").Inc()
			if st == stateDead {
				r.log.Warn("member marked dead by prober", "member", m.addr, "err", res.err.Error())
			}
		case res.h.Draining:
			m.markDraining(res.h)
			r.met.probes.With("draining").Inc()
		default:
			prev, _, _ := m.snapshot()
			m.readmit(res.h)
			r.met.probes.With("ok").Inc()
			if prev == stateDead || prev == stateSuspect {
				r.log.Info("member re-admitted", "member", m.addr, "shard", res.h.ShardID)
			}
		}
	case <-timer.C:
		m.strike(deadStrikes)
		m.dropConn(cli)
		r.met.probes.With("timeout").Inc()
	}
}
