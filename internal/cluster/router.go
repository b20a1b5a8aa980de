package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// handleRequest is the router's operator-frame handler, which the
// front door runs on a goroutine per frame: derive the placement key,
// walk the candidate list, hand the winning reply back for relay under
// the client's request ID. The trace ID survives the hop: the ID the
// door attached (the client's, or one the router's recorder assigned)
// goes out in the backend frame, so the router's waterfall and the
// daemon's correlate.
func (r *Router) handleRequest(f *server.Frame, rt *obs.Trace, _ time.Time) server.Reply {
	r.met.inflight.Add(1)
	// The placement key is the weight operand's content hash (B for
	// binary operators, A for the unary reductions), folded over the
	// payload bytes where they lie: the router never materializes a
	// matrix, and a malformed payload is refused here with the same
	// typed error the daemon's decoder would give.
	dst := time.Now()
	key, err := server.WireWeightKey(f.Type, f.Payload)
	rt.ObserveSpan(obs.StageRouteDecode, dst, time.Since(dst), "")
	var resp *server.Frame
	if err == nil {
		resp, err = r.forward(key, f.Type, f.Payload, f.TraceID, rt)
	}
	// The client's payload was resent on every forward attempt: it has
	// no reader left.
	f.Release()
	if err != nil {
		return server.Reply{Err: err, Held: true}
	}
	rep := server.Relay(resp)
	rep.Held = true
	return rep
}

// candidates orders the members to try for key: the affinity-table
// member first (its weight buffers are warm), then the rendezvous rank
// order over healthy members. With no healthy members the full roster
// ranks instead — one attempt against a suspect member beats an
// unconditional failure, and a success re-admits it.
func (r *Router) candidates(key uint64) []*member {
	pool := r.set.eligible()
	if len(pool) == 0 {
		pool = r.set.all()
	}
	ranked := rankMembers(key, pool)
	if addr, ok := r.aff.lookup(key); ok {
		for i, m := range ranked {
			if m.addr == addr {
				if i != 0 {
					copy(ranked[1:i+1], ranked[:i])
					ranked[0] = m
				}
				r.met.affHits.Inc()
				break
			}
		}
	}
	return ranked
}

// forward walks the candidate list for key until a member answers.
// Failover advances on the failure classes where another replica can
// do better — sheds, transient device faults, draining members, dial
// failures, lost connections (operators are pure, so a resend cannot
// duplicate side effects) — and returns immediately on answers that
// are the request's own fault (bad request, deadline, version) or a
// genuine computed failure (internal). The error returned after the
// last candidate is always a typed error, so the client's retry
// machinery sees a classified failure, never a raw socket error.
func (r *Router) forward(key uint64, op server.MsgType, payload []byte,
	traceID uint64, rt *obs.Trace) (*server.Frame, error) {
	cands := r.candidates(key)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no cluster members configured", server.ErrInternal)
	}
	var lastErr error
	for _, m := range cands {
		cli, err := m.conn()
		if err != nil {
			r.memberFailed(m, cli, rt, "dial", err)
			lastErr = fmt.Errorf("%w: member %s unreachable: %v", server.ErrTransient, m.addr, err)
			continue
		}
		fst := time.Now()
		resp, err := cli.Forward(op, payload, traceID)
		if err == nil {
			r.met.forwards.With(m.addr).Inc()
			rt.ObserveSpan(obs.StageRouteForward, fst, time.Since(fst), m.addr)
			if r.aff.bind(key, m.addr) {
				r.met.affRebinds.Inc()
			}
			return resp, nil
		}
		rt.ObserveSpan(obs.StageRouteForward, fst, time.Since(fst), m.addr)
		switch {
		case errors.Is(err, server.ErrOverloaded):
			// The member is healthy, just full: spill to the next rank.
			// This is also the cluster's load balancer — hot keys overflow
			// their home member instead of queueing behind it.
			r.failover(rt, m, "shed", err)
			lastErr = err
		case errors.Is(err, server.ErrTransient):
			r.failover(rt, m, "transient", err)
			lastErr = err
		case errors.Is(err, server.ErrShuttingDown):
			// The daemon told us itself: out of the ring without strikes,
			// back on the next successful probe.
			_, _, h := m.snapshot()
			h.Draining = true
			m.markDraining(h)
			r.updateStateGauges()
			r.failover(rt, m, "draining", err)
			lastErr = err
		case errors.Is(err, server.ErrBadRequest),
			errors.Is(err, server.ErrDeadlineExceeded),
			errors.Is(err, server.ErrVersionMismatch),
			errors.Is(err, server.ErrInternal):
			// Another replica would answer the same way (the fault is in
			// the request or the computation, not the member).
			return nil, err
		default:
			// Connection-level failure: the member died mid-conversation.
			// The request itself was lost with the connection, so resend
			// to the next candidate (operators are pure).
			r.memberFailed(m, cli, rt, "conn", err)
			lastErr = fmt.Errorf("%w: member %s connection lost: %v", server.ErrTransient, m.addr, err)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: no cluster member available", server.ErrTransient)
	}
	return nil, lastErr
}

// failover records one candidate advance.
func (r *Router) failover(rt *obs.Trace, m *member, reason string, err error) {
	r.met.failovers.With(reason).Inc()
	rt.ObserveEvent("failover", "member="+m.addr+" reason="+reason, true)
	r.log.Debug("failover", "member", m.addr, "reason", reason, "err", err.Error())
}

// memberFailed strikes a member for a connection-level failure (dial
// or mid-conversation loss), drops its client so the next use redials,
// and records the failover.
func (r *Router) memberFailed(m *member, cli *server.Client, rt *obs.Trace, reason string, err error) {
	st := m.strike(deadStrikes)
	m.dropConn(cli)
	r.updateStateGauges()
	r.failover(rt, m, reason, err)
	if st == stateDead {
		r.log.Warn("member marked dead", "member", m.addr, "err", err.Error())
	}
}
