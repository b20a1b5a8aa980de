package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Client is a Go client for the gptpu-serve wire protocol. One client
// multiplexes any number of concurrent calls over a single TCP
// connection, matching replies to callers by request ID; all methods
// are safe for concurrent use.
type Client struct {
	conn net.Conn
	seq  atomic.Uint64

	retry   RetryPolicy
	retries atomic.Int64

	wmu sync.Mutex
	fw  frameWriter

	pmu     sync.Mutex
	pending map[uint64]chan reply
	closed  bool
	err     error
}

// RetryPolicy governs Call's retries of retryable typed errors
// (ErrOverloaded sheds, ErrTransient device faults). Each retry backs
// off exponentially, at most backoffCap, with jitter: the standard
// defense against synchronized retry storms from many clients shed at
// once. Only Call retries; Forward and Health send once, which is why
// the cluster router's member clients carry no policy.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt (0 = no
	// retries: Dial's default, preserving strict shed semantics).
	Max int
	// Base is the first backoff (0 = 2ms); it doubles per retry.
	Base time.Duration
}

const (
	// backoffCap bounds one retry's backoff.
	backoffCap = 250 * time.Millisecond
	// backoffJitter is the randomized fraction of each backoff:
	// sleep = backoff*(1-backoffJitter) + rand*backoff*backoffJitter.
	backoffJitter = 0.5
)

// backoff returns the nth (0-based) retry's sleep with jitter applied.
func (p RetryPolicy) backoff(n int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	d := base << n
	if d > backoffCap || d <= 0 { // <= 0 guards shift overflow
		d = backoffCap
	}
	f := float64(d)
	return time.Duration(f*(1-backoffJitter) + rand.Float64()*f*backoffJitter)
}

// retryable reports whether err is a failure class worth resending an
// identical request for: a shed (ErrOverloaded) or a device fault the
// server classified as transient. Connection losses are not retryable
// through this client — it is dead; redial instead.
func retryable(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrTransient)
}

// reply is one routed response frame (or the connection failure that
// preempted it).
type reply struct {
	f   *Frame
	err error
}

// CallOpts tunes one request.
type CallOpts struct {
	// Deadline is the end-to-end budget the server enforces before
	// dispatch (0 = none). It is propagated on the wire, so shed
	// happens server-side with a typed reply, not by a client timer.
	Deadline time.Duration
	// NoBatch opts the request out of server-side GEMM micro-batching
	// (exact per-request quantization scale at lower throughput).
	NoBatch bool
	// TraceID pins the request's end-to-end trace ID (0 = the client
	// generates a fresh one). Propagated in the frame header and echoed
	// in every reply, including typed errors.
	TraceID uint64
}

// Dial connects to a gptpu-serve daemon. Calls through the returned
// client do not retry (shed and transient-fault replies surface
// directly); use DialRetry for backoff-and-retry semantics.
func Dial(addr string) (*Client, error) {
	return DialRetry(addr, RetryPolicy{})
}

// DialRetry is Dial with a retry policy: Call (and the operator
// methods built on it) resends a request answered with a retryable
// typed error (ErrOverloaded, ErrTransient) up to p.Max times with
// exponential backoff and jitter. It dials once; Forward and Health
// never retry, so the policy does nothing for them.
func DialRetry(addr string, p RetryPolicy) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, p), nil
}

// newClient starts a client on an open connection.
func newClient(conn net.Conn, p RetryPolicy) *Client {
	c := &Client{
		conn:    conn,
		retry:   p,
		fw:      frameWriter{w: conn},
		pending: make(map[uint64]chan reply),
	}
	go c.readLoop()
	return c
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.failAll(net.ErrClosed)
	return err
}

// readLoop routes response frames to their callers until the
// connection dies. Frames are pooled: the caller a frame is routed to
// releases it, a frame nobody waits for is released here.
func (c *Client) readLoop() {
	fr := newConnReader(c.conn)
	for {
		f, err := fr.Next()
		if err != nil {
			f.Release()
			c.failAll(err)
			return
		}
		c.pmu.Lock()
		ch := c.pending[f.ReqID]
		delete(c.pending, f.ReqID)
		c.pmu.Unlock()
		if ch != nil {
			ch <- reply{f: f}
		} else {
			f.Release()
		}
	}
}

// failAll fails every outstanding and future call with err.
func (c *Client) failAll(err error) {
	c.pmu.Lock()
	if !c.closed {
		c.closed = true
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan reply)
	c.pmu.Unlock()
	for _, ch := range pending {
		ch <- reply{err: err}
	}
}

// roundTrip sends one frame carrying traceID and waits for its reply.
// Error replies carrying a trace ID annotate the returned error with
// it, so a shed request's log line names the exact server-side trace.
// The payload is only read (a retry resends it); the returned frame is
// pooled and the caller releases it after its last read.
func (c *Client) roundTrip(t MsgType, payload []byte, traceID uint64) (*Frame, error) {
	id := c.seq.Add(1)
	ch := make(chan reply, 1)
	c.pmu.Lock()
	if c.closed {
		err := c.err
		c.pmu.Unlock()
		return nil, fmt.Errorf("server client: connection closed: %w", err)
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	err := c.fw.write(&Frame{Type: t, ReqID: id, TraceID: traceID, Payload: payload})
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return nil, err
	}

	r := <-ch
	if r.err != nil {
		return nil, fmt.Errorf("server client: connection lost: %w", r.err)
	}
	if r.f.Type != MsgError {
		return r.f, nil
	}
	code, msg, derr := decodeError(r.f.Payload)
	replyTrace := r.f.TraceID
	r.f.Release() // decodeError copied the message out
	if derr != nil {
		return nil, derr
	}
	err = errFromCode(code, msg)
	if replyTrace != 0 {
		// A relayed error already ends with the first hop's tag.
		if tag := " [trace=" + obs.FormatID(replyTrace) + "]"; !strings.HasSuffix(msg, tag) {
			err = fmt.Errorf("%w%s", err, tag)
		}
	}
	return nil, err
}

// Forward relays one already-encoded operator request and returns the
// raw reply frame. It is the cluster router's backend hop: the router
// never re-encodes payloads — it decodes just enough of the request to
// derive a placement key, then forwards the client's payload bytes
// verbatim. Typed error replies surface as
// errors exactly like Call's, so the router's failover logic can
// classify them with errors.Is. Forward sends once whatever the
// client's RetryPolicy: only Call retries, and the router fails over
// to the next member instead. The reply frame is pooled: Release it
// after the last read of its payload (a frame never released is
// collected normally).
func (c *Client) Forward(op MsgType, payload []byte, traceID uint64) (*Frame, error) {
	return c.roundTrip(op, payload, traceID)
}

// Health round-trips a liveness probe and decodes the Pong payload
// (draining state, shard identity, device count). A malformed payload
// is an error, like a lost connection. Like Forward it sends once:
// only Call retries.
func (c *Client) Health() (HealthInfo, error) {
	f, err := c.roundTrip(MsgPing, nil, 0)
	if err != nil {
		return HealthInfo{}, err
	}
	defer f.Release() // decodeHealth copies the shard ID out
	if f.Type != MsgPong {
		return HealthInfo{}, fmt.Errorf("server client: ping answered with %s", f.Type)
	}
	return decodeHealth(f.Payload)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.Health()
	return err
}

// Call invokes one remote operator. b must be nil exactly for the
// unary operators (Mean, Max). The deadline is end to end across
// retries: it is read once, as an absolute time, and each resend
// carries only the budget left, so a retry never restarts it; once the
// budget is spent Call returns ErrDeadlineExceeded without sending.
func (c *Client) Call(op MsgType, a, b *tensor.Matrix, opts *CallOpts) (*tensor.Matrix, error) {
	if !op.isOp() {
		return nil, fmt.Errorf("server client: %s is not an operator", op)
	}
	if a == nil || (b == nil) != (op.operator().Arity() == 1) {
		return nil, fmt.Errorf("server client: wrong operand count for %s", op)
	}
	req := &OpRequest{Op: op, A: a, B: b}
	traceID := uint64(0)
	var deadline time.Time
	if opts != nil {
		if opts.Deadline > 0 {
			deadline = time.Now().Add(opts.Deadline)
			req.DeadlineMillis = wireMillis(opts.Deadline)
		}
		if opts.NoBatch {
			req.Flags |= flagNoBatch
		}
		traceID = opts.TraceID
	}
	if traceID == 0 {
		traceID = obs.NewTraceID()
	}
	payload := encodeOpRequest(req)
	// Released only once the retry loop is over: every retry reads it
	// again.
	defer tensor.Put(payload)
	var f *Frame
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err = RebaseDeadline(payload.Data, deadline, time.Now()); err != nil {
				return nil, err
			}
		}
		f, err = c.roundTrip(op, payload.Data, traceID)
		if err == nil || attempt >= c.retry.Max || !retryable(err) {
			break
		}
		c.retries.Add(1)
		time.Sleep(c.retry.backoff(attempt))
	}
	if err != nil {
		return nil, err
	}
	// The result is decoded into a fresh matrix the caller owns (it is
	// never pooled); after that the reply frame has no reader left.
	defer f.Release()
	if f.Type != MsgResult {
		return nil, fmt.Errorf("server client: %s answered with %s", op, f.Type)
	}
	m, rest, err := decodeMatrix(f.Payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("server client: %d trailing bytes in result", len(rest))
	}
	return m, nil
}

// Gemm computes A x B remotely (tpuGemm).
func (c *Client) Gemm(a, b *tensor.Matrix, opts *CallOpts) (*tensor.Matrix, error) {
	return c.Call(MsgGemm, a, b, opts)
}

// Add computes A + B remotely.
func (c *Client) Add(a, b *tensor.Matrix, opts *CallOpts) (*tensor.Matrix, error) {
	return c.Call(MsgAdd, a, b, opts)
}

// Mean reduces a to its average value remotely.
func (c *Client) Mean(a *tensor.Matrix, opts *CallOpts) (float32, error) {
	return scalarOf(c.Call(MsgMean, a, nil, opts))
}

// scalarOf reads a reduction's 1x1 result.
func scalarOf(m *tensor.Matrix, err error) (float32, error) {
	if err != nil {
		return 0, err
	}
	return m.At(0, 0), nil
}
