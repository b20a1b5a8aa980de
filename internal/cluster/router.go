package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// connWriter serializes whole-frame writes from the per-request
// goroutines sharing one client connection.
type connWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func (cw *connWriter) send(f *server.Frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := server.EncodeFrame(cw.bw, f); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// handleConn runs one client connection's read loop, spawning a
// goroutine per operator request — the router-side mirror of the
// daemon's connection handling, so one client connection keeps many
// routed requests in flight.
func (r *Router) handleConn(conn net.Conn) {
	r.met.connections.Add(1)
	defer func() {
		r.met.connections.Add(-1)
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		r.connWG.Done()
	}()

	cw := &connWriter{bw: bufio.NewWriter(conn)}
	// Frames are pooled. An operator frame belongs to its handleRequest
	// goroutine, which releases it after the reply is written (every
	// forward attempt resends its payload); every other frame is
	// released here, after its reply.
	fr := server.NewFrameReader(bufio.NewReader(conn))
	for {
		f, err := fr.Next()
		if err != nil {
			if errors.Is(err, server.ErrVersionMismatch) && f != nil {
				r.reply(cw, f.ReqID, 0, server.MsgError, server.ErrorPayload(err))
				f.Release()
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				r.log.Warn("dropping client connection on malformed frame", "err", err.Error())
				r.reply(cw, 0, 0, server.MsgError, server.ErrorPayload(err))
			}
			return
		}

		switch {
		case f.Type == server.MsgPing:
			// The router answers probes itself with its aggregate health
			// — `gptpu-serve -check <router>` works unchanged.
			r.reply(cw, f.ReqID, f.TraceID, server.MsgPong, server.EncodeHealth(r.health()))
		case f.Type >= server.MsgGemm && f.Type <= server.MsgMax:
			r.mu.Lock()
			if r.draining {
				r.mu.Unlock()
				r.reply(cw, f.ReqID, f.TraceID, server.MsgError,
					server.ErrorPayload(fmt.Errorf("%w: router draining", server.ErrShuttingDown)))
				break
			}
			r.reqWG.Add(1)
			r.mu.Unlock()
			go r.handleRequest(cw, f)
			continue
		default:
			r.reply(cw, f.ReqID, f.TraceID, server.MsgError,
				server.ErrorPayload(fmt.Errorf("%w: unexpected frame type %s", server.ErrBadRequest, f.Type)))
		}
		f.Release()
	}
}

// reply writes one frame echoing the request's ID and trace ID. Write
// errors are ignored — the read loop notices a dead connection.
func (r *Router) reply(cw *connWriter, reqID, traceID uint64, t server.MsgType, payload []byte) {
	_ = cw.send(&server.Frame{Type: t, ReqID: reqID, TraceID: traceID, Payload: payload})
}

// handleRequest routes one operator request: derive its placement key,
// walk the candidate list, relay the winning reply under the client's
// request ID.
func (r *Router) handleRequest(cw *connWriter, f *server.Frame) {
	defer r.reqWG.Done()
	r.met.inflight.Add(1)
	arrived := time.Now()
	op := f.Type
	r.met.requests.With(op.String()).Inc()

	// The trace ID survives the hop: the same ID the client attached
	// (or the router's recorder assigned) goes out in the backend frame,
	// so the router's waterfall and the daemon's correlate.
	rt := r.rec.Start(f.TraceID, f.ReqID, "route:"+op.String())
	traceID := f.TraceID
	if rt != nil {
		traceID = rt.ID()
	}

	// The placement key is the weight operand's content hash (B for
	// binary operators, A for the unary reductions), folded over the
	// payload bytes where they lie: the router never materializes a
	// matrix, and a malformed payload is refused here with the same
	// typed error the daemon's decoder would give.
	dst := time.Now()
	key, err := server.WireWeightKey(op, f.Payload)
	rt.ObserveSpan("route_decode", dst, time.Since(dst), "")
	var resp *server.Frame
	if err == nil {
		resp, err = r.forward(key, op, f.Payload, traceID, rt)
	}
	r.finishReply(cw, f.ReqID, traceID, op, arrived, rt, resp, err)
	// Both frames are pooled: the client's payload was resent on every
	// forward attempt and the backend's was the reply just written, so
	// neither has a reader left.
	resp.Release()
	f.Release()
}

// finishReply relays the backend's reply frame (its payload passes
// through verbatim) or renders err as a typed error. The socket write
// is the last thing an observer can see: the counters, the route
// latency, the sealed trace and the in-flight gauge are all settled
// before it, so a client holding its answer finds the request finished
// in the router's flight recorder.
func (r *Router) finishReply(cw *connWriter, reqID, traceID uint64,
	op server.MsgType, arrived time.Time, rt *obs.Trace, resp *server.Frame, err error) {
	status, typ := "ok", server.MsgError
	var payload []byte
	if err != nil {
		status = server.ErrStatus(err)
		payload = server.ErrorPayload(err)
		lvl := slog.LevelDebug
		if status == "internal" || status == "bad_request" {
			lvl = slog.LevelWarn
		}
		r.log.Log(context.Background(), lvl, "routed request failed",
			"trace_id", obs.FormatID(traceID), "req_id", reqID,
			"op", op.String(), "code", status, "err", err.Error())
	} else {
		typ, payload = resp.Type, resp.Payload
	}
	r.met.replies.With(status).Inc()
	r.met.routeLat.With(op.String()).Observe(time.Since(arrived).Seconds())
	rt.Finish(status)
	r.met.inflight.Add(-1)
	r.reply(cw, reqID, traceID, typ, payload)
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
		cli, err := m.conn(r.cfg.Retry)
		if err != nil {
			r.memberFailed(m, cli, rt, "dial", err)
			lastErr = fmt.Errorf("%w: member %s unreachable: %v", server.ErrTransient, m.addr, err)
			continue
		}
		fst := time.Now()
		resp, err := cli.Forward(op, payload, traceID)
		if err == nil {
			r.met.forwards.With(m.addr).Inc()
			rt.ObserveSpan("route_forward", fst, time.Since(fst), m.addr)
			rebound, evicted := r.aff.bind(key, m.addr)
			if rebound {
				r.met.affRebinds.Inc()
			}
			if evicted {
				r.met.affEvicts.Inc()
			}
			return resp, nil
		}
		rt.ObserveSpan("route_forward", fst, time.Since(fst), m.addr)
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
			m.markDraining()
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
	st := m.strike(r.cfg.DeadStrikes)
	m.dropConn(cli)
	r.updateStateGauges()
	r.failover(rt, m, reason, err)
	if st == stateDead {
		r.log.Warn("member marked dead", "member", m.addr, "err", err.Error())
	}
}
