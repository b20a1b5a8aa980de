package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// FrontDoor is the wire front door both serving processes share: the
// daemon (Server) and the cluster router each own one. It holds the
// listener, the accept loop and the live connections; runs every
// connection's read loop; answers Ping, version skew, malformed
// frames and unexpected frame types itself; refuses operator frames
// once draining; and hands every other operator frame to its owner's
// handler on a goroutine of its own. The owner supplies only its
// health snapshot and that handler.
type FrontDoor struct {
	health func() HealthInfo
	serve  func(w *ConnWriter, f *Frame)
	rec    *obs.Recorder
	log    *slog.Logger

	connections  *telemetry.Gauge
	bytesRead    *telemetry.Counter
	bytesWritten *telemetry.Counter

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	aborted  bool           // hard-kill: listener dropped without drain
	reqWG    sync.WaitGroup // in-flight operator handlers
	connWG   sync.WaitGroup // connection read loops
}

// NewFrontDoor builds a front door that records into reg under prefix
// (prefix_connections, prefix_bytes_read_total,
// prefix_bytes_written_total). health snapshots the owner's
// probe-visible identity and capacity (the door fills in Draining);
// serve handles one operator frame, owns it (it must Release it), and
// answers it exactly once through w.
func NewFrontDoor(prefix string, reg *telemetry.Registry, rec *obs.Recorder, log *slog.Logger,
	health func() HealthInfo, serve func(w *ConnWriter, f *Frame)) *FrontDoor {
	return &FrontDoor{
		health: health,
		serve:  serve,
		rec:    rec,
		log:    log,
		connections: reg.Gauge(prefix+"_connections",
			"Open client connections.").With(),
		bytesRead: reg.Counter(prefix+"_bytes_read_total",
			"Wire bytes read from clients (frames incl. headers).").With(),
		bytesWritten: reg.Counter(prefix+"_bytes_written_total",
			"Wire bytes written to clients (frames incl. headers).").With(),
		conns: make(map[net.Conn]struct{}),
	}
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

	w := &ConnWriter{fw: frameWriter{w: conn}, written: d.bytesWritten}
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
				w.Reply(f.ReqID, 0, MsgError, encodeError(CodeVersion, err.Error()))
				f.Release()
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				// Malformed framing: the stream position is unknown,
				// so drop the connection after a best-effort error.
				d.log.Warn("dropping connection on malformed frame", "err", err.Error())
				w.Reply(0, 0, MsgError, encodeError(CodeBadRequest, err.Error()))
			}
			return
		}
		d.bytesRead.Add(float64(wireLen(f)))

		switch {
		case f.Type == MsgPing:
			// The Pong carries the health payload (drain state, shard
			// identity, device count).
			h := d.health()
			d.mu.Lock()
			h.Draining = d.draining
			d.mu.Unlock()
			w.Reply(f.ReqID, f.TraceID, MsgPong, encodeHealth(h))
		case f.Type.isOp():
			d.mu.Lock()
			if d.draining {
				d.mu.Unlock()
				// Typed error replies echo the request's trace ID so the
				// client can log which request the shutdown bounced.
				w.Reply(f.ReqID, f.TraceID, MsgError, encodeError(CodeShuttingDown, "draining"))
				break
			}
			d.reqWG.Add(1)
			d.mu.Unlock()
			go d.handle(w, f)
			continue
		default:
			w.Reply(f.ReqID, f.TraceID, MsgError,
				encodeError(CodeBadRequest, fmt.Sprintf("unexpected frame type %s", f.Type)))
		}
		f.Release()
	}
}

// handle runs the owner's handler for one admitted operator frame.
func (d *FrontDoor) handle(w *ConnWriter, f *Frame) {
	defer d.reqWG.Done()
	d.serve(w, f)
}

// ConnWriter serializes whole-frame writes from the request goroutines
// sharing one connection, and counts the bytes it writes.
type ConnWriter struct {
	mu      sync.Mutex
	fw      frameWriter
	written *telemetry.Counter
}

// Reply writes one frame echoing a request's ID and trace ID. Write
// errors are ignored — the read loop notices a dead connection.
func (w *ConnWriter) Reply(reqID, traceID uint64, t MsgType, payload []byte) {
	f := Frame{Type: t, ReqID: reqID, TraceID: traceID, Payload: payload}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fw.write(&f) != nil {
		return
	}
	w.written.Add(float64(wireLen(&f)))
}
