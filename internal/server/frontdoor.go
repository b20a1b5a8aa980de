package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// FrontDoor is the wire front door both serving processes share: the
// daemon (Server) and the cluster router each own one. It holds the
// listener, the accept loop and the live connections; runs every
// connection's read loop; answers Ping, version skew, malformed
// frames and unexpected frame types itself; refuses operator frames
// once draining; and runs every other operator frame's request on a
// goroutine of its own, from arrival to the reply write. The owner
// supplies its health snapshot, the handler that turns a frame into a
// Reply, and the step that gives back what a request held.
type FrontDoor struct {
	owner    DoorOwner
	rec      *obs.Recorder
	log      *slog.Logger
	traceOps [MsgMax - MsgGemm + 1]string // trace op name per operator

	connections  *telemetry.Gauge
	bytesRead    *telemetry.Counter
	bytesWritten *telemetry.Counter
	requests     *telemetry.CounterVec   // by op
	replies      *telemetry.CounterVec   // by status (ok / error class)
	latency      *telemetry.HistogramVec // arrival to reply sealed, by op
	stages       *telemetry.HistogramVec // a traced request's seconds per stage

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	aborted  bool           // hard-kill: listener dropped without drain
	reqWG    sync.WaitGroup // in-flight operator requests
	connWG   sync.WaitGroup // connection read loops
}

// DoorOwner is what the daemon or the router plugs into its front door.
type DoorOwner struct {
	// Health snapshots the owner's probe-visible identity and capacity
	// (the door fills in Draining).
	Health func() HealthInfo
	// Handle answers one operator frame that arrived at arrived, under
	// trace rt (nil when tracing is off). f.TraceID is the ID the reply
	// will carry. Handle owns f and must Release it.
	Handle func(f *Frame, rt *obs.Trace, arrived time.Time) Reply
	// Settle gives back the slot a Held reply's request holds. The door
	// calls it after the reply is counted and its trace sealed, just
	// before the write.
	Settle func()
	// TraceOp prefixes every trace's op name ("route:" on the router).
	TraceOp string
	// WriteSeconds, when set, observes each reply frame's socket write.
	WriteSeconds *telemetry.Histogram
}

// Reply is an owner's answer to one operator frame. The front door
// seals it and writes it last.
type Reply struct {
	Type    MsgType // the reply frame's type (unused when Err is set)
	Payload []byte
	Err     error // set: the door writes it as a typed error reply
	// Held marks a request holding one of the owner's slots: an
	// admission slot on the daemon, an in-flight count on the router.
	Held bool
	buf  *tensor.Mat[byte] // the recycled buffer Payload lies in, released after the write
}

// Relay is the reply that passes a backend's reply frame through
// verbatim. The frame's pooled buffer goes with it and is released
// after the write.
func Relay(resp *Frame) Reply {
	rep := Reply{Type: resp.Type, Payload: resp.Payload, buf: resp.buf}
	resp.buf, resp.Payload = nil, nil
	return rep
}

// NewFrontDoor builds a front door that records into reg under prefix:
// prefix_connections, prefix_bytes_read_total,
// prefix_bytes_written_total, and the request path's
// prefix_requests_total, prefix_replies_total and
// prefix_request_seconds, and the traced requests'
// prefix_stage_seconds.
func NewFrontDoor(prefix string, reg *telemetry.Registry, rec *obs.Recorder, log *slog.Logger, owner DoorOwner) *FrontDoor {
	d := &FrontDoor{
		owner: owner,
		rec:   rec,
		log:   log,
		connections: reg.Gauge(prefix+"_connections",
			"Open client connections.").With(),
		bytesRead: reg.Counter(prefix+"_bytes_read_total",
			"Wire bytes read from clients (frames incl. headers).").With(),
		bytesWritten: reg.Counter(prefix+"_bytes_written_total",
			"Wire bytes written to clients (frames incl. headers).").With(),
		requests: reg.Counter(prefix+"_requests_total",
			"Operator requests received, by operator.", "op"),
		replies: reg.Counter(prefix+"_replies_total",
			"Replies written, by status (ok or error class).", "status"),
		latency: reg.Histogram(prefix+"_request_seconds",
			"Wall seconds from request arrival to reply sealed (the socket write follows), by operator.",
			telemetry.ExpBuckets(1e-4, 10, 7), "op"), // 100 µs to 100 s
		stages: reg.Histogram(prefix+"_stage_seconds",
			"Wall seconds a traced request spent in each stage, its spans of one stage summed; the total stage counts one per traced reply.",
			telemetry.ExpBuckets(1e-6, 10, 9), "stage"), // 1 µs to 100 s
		conns: make(map[net.Conn]struct{}),
	}
	for op := MsgGemm; op <= MsgMax; op++ {
		d.traceOps[op-MsgGemm] = owner.TraceOp + op.String()
	}
	return d
}

// Listen binds the TCP listener (addr like ":8477" or "127.0.0.1:0"
// for an ephemeral port).
func (d *FrontDoor) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.ln = ln
	d.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (empty before Listen).
func (d *FrontDoor) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Serve accepts connections until Drain or Abort closes the listener,
// and then returns nil.
func (d *FrontDoor) Serve() error {
	d.mu.Lock()
	ln := d.ln
	d.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			stopped := d.draining || d.aborted
			d.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.draining || d.aborted {
			// Accepted as the listener closed: Abort has already swept
			// the live connections, so this one must not outlive it.
			d.mu.Unlock()
			conn.Close()
			continue
		}
		d.conns[conn] = struct{}{}
		d.connWG.Add(1)
		d.mu.Unlock()
		go d.handleConn(conn)
	}
}

// Drain is the front door's half of its owner's Shutdown: it freezes
// the flight recorder's in-flight requests, stops accepting, refuses
// new operator frames with ErrShuttingDown, waits for the requests in
// flight to reply, then closes every connection. It reports false when
// a drain had already begun, so the owner's Shutdown stays idempotent.
func (d *FrontDoor) Drain() bool {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	ln := d.ln
	d.mu.Unlock()
	if already {
		return false
	}
	// What was in flight at the drain moment: the flight dump's answer
	// to "what was it doing when it was told to stop".
	d.rec.Capture("drain")
	d.log.Info("drain started")
	if ln != nil {
		ln.Close()
	}
	d.reqWG.Wait()
	d.mu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.connWG.Wait()
	return true
}

// Abort is the chaos hard-kill: drop the listener and every live
// connection immediately, without draining — in-flight requests lose
// their replies mid-write, exactly what SIGKILL inflicts on clients.
// The owner is otherwise left running, so a later Shutdown still
// retires it cleanly.
func (d *FrontDoor) Abort() {
	d.mu.Lock()
	d.aborted = true
	ln := d.ln
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// handleConn runs one connection's read loop, handing each operator
// frame to the owner on its own goroutine, so one connection keeps
// many requests in flight (the client multiplexes by request ID).
func (d *FrontDoor) handleConn(conn net.Conn) {
	d.connections.Add(1)
	defer func() {
		d.connections.Add(-1)
		conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
		d.connWG.Done()
	}()

	w := &connWriter{fw: frameWriter{w: conn}, written: d.bytesWritten}
	// Frames are pooled. An operator frame belongs to the owner's
	// handler, which releases it after its last read; every other frame
	// is released here, after its reply.
	fr := newConnReader(conn)
	for {
		f, err := fr.Next()
		if err != nil {
			if errors.Is(err, ErrVersionMismatch) && f != nil {
				// Answer this request, keep the connection: the length
				// prefix kept the framing intact.
				w.reply(f.ReqID, 0, MsgError, encodeError(CodeVersion, err.Error()))
				f.Release()
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				// Malformed framing: the stream position is unknown,
				// so drop the connection after a best-effort error.
				d.log.Warn("dropping connection on malformed frame", "err", err.Error())
				w.reply(0, 0, MsgError, encodeError(CodeBadRequest, err.Error()))
			}
			return
		}
		d.bytesRead.Add(uint64(WireLen(f)))

		switch {
		case f.Type == MsgPing:
			// The Pong carries the health payload (drain state, shard
			// identity, device count).
			h := d.owner.Health()
			d.mu.Lock()
			h.Draining = d.draining
			d.mu.Unlock()
			w.reply(f.ReqID, f.TraceID, MsgPong, encodeHealth(h))
		case f.Type.isOp():
			d.mu.Lock()
			if d.draining {
				d.mu.Unlock()
				// Typed error replies echo the request's trace ID so the
				// client can log which request the shutdown bounced.
				w.reply(f.ReqID, f.TraceID, MsgError, encodeError(CodeShuttingDown, "draining"))
				break
			}
			d.reqWG.Add(1)
			d.mu.Unlock()
			go d.handle(w, f)
			continue
		default:
			w.reply(f.ReqID, f.TraceID, MsgError,
				encodeError(CodeBadRequest, fmt.Sprintf("unexpected frame type %s", f.Type)))
		}
		f.Release()
	}
}

// handle runs one admitted operator request from arrival to reply,
// and makes the socket write the last thing an observer can see: the
// request is counted and its trace started, the owner's handler
// answers it, the reply is counted, its latency recorded, its trace
// sealed and the owner's slot given back — and only then is the frame
// written. A client that has read its answer therefore finds the
// request finished in the flight recorder and its slot free.
func (d *FrontDoor) handle(w *connWriter, f *Frame) {
	defer d.reqWG.Done()
	arrived := time.Now()
	op, reqID := f.Type, f.ReqID
	d.requests.With(op.String()).Inc()
	// The trace ID is client-generated; the recorder assigns one when
	// the client sent none (a zero field). The reply, error replies
	// included, echoes whichever ID ends up attached, so the client can
	// correlate, and the router forwards it to the next hop.
	rt := d.rec.Start(f.TraceID, reqID, d.traceOps[op-MsgGemm])
	if rt != nil {
		f.TraceID = rt.ID()
	}
	traceID := f.TraceID

	rep := d.owner.Handle(f, rt, arrived)
	status := "ok"
	if rep.Err != nil {
		class := classOf(rep.Err)
		status, rep.Type, rep.Payload = class.status, MsgError, encodeError(class.code, rep.Err.Error())
		// Client-fault and internal failures are operator-actionable;
		// sheds and deadline misses are expected load-control outcomes
		// and stay at debug so a chaos soak does not drown the log.
		lvl := slog.LevelDebug
		if class.code == codeInternal || class.code == CodeBadRequest {
			lvl = slog.LevelWarn
		}
		d.log.Log(context.Background(), lvl, "request failed",
			"trace_id", obs.FormatID(traceID), "req_id", reqID,
			"op", op.String(), "code", status, "err", rep.Err.Error())
	}
	d.replies.With(status).Inc()
	d.latency.With(op.String()).Observe(time.Since(arrived).Seconds())
	rt.Finish(status, d.stages)
	if rep.Held {
		d.owner.Settle()
	}
	wst := time.Now()
	w.reply(reqID, traceID, rep.Type, rep.Payload)
	d.owner.WriteSeconds.Observe(time.Since(wst).Seconds())
	tensor.Put(rep.buf)
}

// connWriter serializes whole-frame writes from the request goroutines
// sharing one connection, and counts the bytes it writes.
type connWriter struct {
	mu      sync.Mutex
	fw      frameWriter
	written *telemetry.Counter
}

// reply writes one frame echoing a request's ID and trace ID. Write
// errors are ignored — the read loop notices a dead connection.
func (w *connWriter) reply(reqID, traceID uint64, t MsgType, payload []byte) {
	f := Frame{Type: t, ReqID: reqID, TraceID: traceID, Payload: payload}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fw.write(&f) != nil {
		return
	}
	w.written.Add(uint64(WireLen(&f)))
}
