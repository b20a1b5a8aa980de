package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/server"
	"repro/internal/tensor"
)

// typedOrNil asserts a routed request's outcome is exactly-once and
// classified: nil (success) or one of the wire protocol's typed error
// classes. A raw socket error leaking to the client means the router
// relayed its own backend failure instead of classifying it.
func typedOrNil(err error) error {
	if err == nil {
		return nil
	}
	for _, sentinel := range []error{
		server.ErrOverloaded, server.ErrDeadlineExceeded, server.ErrBadRequest,
		server.ErrInternal, server.ErrShuttingDown, server.ErrVersionMismatch,
		server.ErrTransient,
	} {
		if errors.Is(err, sentinel) {
			return nil
		}
	}
	return fmt.Errorf("untyped error reached the client: %w", err)
}

// TestChaosFailover is the cluster's kill test: three daemons serve a
// concurrent request stream while one daemon drains gracefully (the
// SIGTERM path — cmd/gptpu-serve wires SIGTERM to exactly this
// Shutdown call) and another is hard-killed mid-stream (Abort: the
// listener and every connection drop without drain, as SIGKILL would).
// Required outcomes:
//
//   - Every request gets exactly one answer — success or a typed
//     error. No hangs (watchdog) and no untyped socket errors.
//   - The stream keeps succeeding: retryable failures land on the
//     surviving replica via the router's failover (and the client's
//     DialRetry policy absorbs the shed/transient answers).
//   - No duplicate side effects: the operator set is pure, so the
//     router's resend-after-connection-loss is verified by result
//     correctness (a GEMM answered twice differently would fail the
//     per-request RMSE check).
//
// Run under -race by `make race` with the rest of the repo.
func TestChaosFailover(t *testing.T) {
	d0 := startDaemon(t, server.Config{Devices: 1, ShardID: "s0", MaxInFlight: 128})
	d1 := startDaemon(t, server.Config{Devices: 1, ShardID: "s1", MaxInFlight: 128})
	d2 := startDaemon(t, server.Config{Devices: 1, ShardID: "s2", MaxInFlight: 128})
	r := startRouter(t, Config{}, d0, d1, d2)

	const (
		workers    = 8
		perWorker  = 30
		chaosAfter = 60 // total completions before the kills fire
	)
	var completed atomic.Int64
	chaos := make(chan struct{})
	var chaosOnce sync.Once

	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker weight matrix: 8 distinct placement keys spread
			// over the 3 members, so both victims own live keys.
			rng := rand.New(rand.NewSource(int64(w) + 100))
			a := tensor.RandUniform(rng, 8, 8, -1, 1)
			b := tensor.RandUniform(rng, 8, 8, -1, 1)
			want := blas.NaiveGemm(a, b)
			c, err := server.DialRetry(r.Addr(), server.RetryPolicy{Max: 4, Base: 5 * time.Millisecond})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				got, err := c.Gemm(a, b, &server.CallOpts{Deadline: 10 * time.Second})
				if terr := typedOrNil(err); terr != nil {
					errCh <- terr
				}
				if err == nil {
					if rmse := tensor.RMSE(want, got); rmse > 0.05 {
						errCh <- fmt.Errorf("worker %d req %d: RMSE %v", w, i, rmse)
					}
				}
				if completed.Add(1) == chaosAfter {
					chaosOnce.Do(func() { close(chaos) })
				}
			}
		}(w)
	}

	// The chaos agent: once the stream is warmed up, SIGTERM-drain d1
	// and hard-kill d2 concurrently with the in-flight requests.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-chaos
		var kw sync.WaitGroup
		kw.Add(2)
		go func() { defer kw.Done(); d1.Shutdown() }()
		go func() { defer kw.Done(); d2.Abort() }()
		kw.Wait()
	}()

	// Watchdog: the whole stream (including the kills) must finish —
	// a hung request means a reply was silently dropped somewhere.
	streamDone := make(chan struct{})
	go func() { wg.Wait(); close(streamDone) }()
	select {
	case <-streamDone:
	case <-time.After(60 * time.Second):
		t.Fatal("request stream hung after chaos (some request never got an answer)")
	}
	<-killed
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Post-chaos: the survivor must hold the whole key space. Probe
	// rounds eject the dead members deterministically, then a fresh
	// burst of requests — every key, including those homed on the
	// victims — must succeed on d0 alone.
	r.ProbeNow()
	r.ProbeNow()
	snap := r.Snapshot()
	states := map[string]string{}
	for _, s := range snap {
		states[s.Addr] = s.State
	}
	if states[d0.Addr()] != "healthy" {
		t.Fatalf("survivor %s is %q after probes", d0.Addr(), states[d0.Addr()])
	}
	if states[d2.Addr()] == "healthy" {
		t.Fatalf("hard-killed daemon still healthy after probes: %+v", snap)
	}

	c := dialRouter(t, r)
	rng := rand.New(rand.NewSource(999))
	for i := 0; i < 16; i++ {
		a := tensor.RandUniform(rng, 8, 8, -1, 1)
		b := tensor.RandUniform(rng, 8, 8, -1, 1)
		got, err := c.Gemm(a, b, &server.CallOpts{Deadline: 10 * time.Second})
		if err != nil {
			t.Fatalf("post-chaos request %d: %v", i, err)
		}
		if rmse := tensor.RMSE(blas.NaiveGemm(a, b), got); rmse > 0.05 {
			t.Fatalf("post-chaos request %d: RMSE %v", i, rmse)
		}
	}

	// The kills must actually have exercised failover, and every
	// failover the router performed must be accounted one of the
	// classified reasons (the counter only increments with a reason
	// label, so a nonzero total proves classification happened).
	var failovers float64
	for _, reason := range []string{"dial", "conn", "shed", "transient", "draining"} {
		failovers += r.met.failovers.With(reason).Value()
	}
	if failovers == 0 {
		t.Error("chaos run recorded zero failovers — the kills were not exercised")
	}
}

// TestHardKillInFlight pins the Abort semantics the chaos test relies
// on: requests in flight on a hard-killed daemon are resent by the
// router to the surviving replica (operators are pure, so the resend
// is side-effect-safe) — with one member still alive, EVERY request
// must succeed, with a correct result, and nothing may hang. A relay in
// front of the victim withholds its replies, so every request is still
// in flight on it when it is killed.
func TestHardKillInFlight(t *testing.T) {
	d0 := startDaemon(t, server.Config{Devices: 1, ShardID: "s0"})
	d1 := startDaemon(t, server.Config{Devices: 1, ShardID: "s1"})
	const reqs = 12
	hole := newReplyHole(t, d0.Addr(), reqs)
	r := startRouter(t, Config{Members: []string{hole.addr()}}, d1)
	t.Cleanup(hole.close) // before the router drains: a failed run must not hang it
	c := dialRouter(t, r)

	// A weight whose key ranks the relayed victim first.
	rng := rand.New(rand.NewSource(17))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	var b *tensor.Matrix
	for b == nil || r.candidates(server.WeightKey(b))[0].addr != hole.addr() {
		b = tensor.RandUniform(rng, 8, 8, -1, 1)
	}
	want := blas.NaiveGemm(a, b)

	var wg sync.WaitGroup
	errCh := make(chan error, reqs)
	okCh := make(chan *tensor.Matrix, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Gemm(a, b, &server.CallOpts{Deadline: 20 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			okCh <- got
		}()
	}
	select {
	case <-hole.all:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d requests reached the victim", hole.forwarded.Load(), reqs)
	}
	inFlight := hole.forwarded.Load() // no reply has left the relay
	d0.Abort()                        // d1 survives and must absorb everything

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight requests hung after hard kill")
	}
	if inFlight < 1 {
		t.Fatal("no request was in flight on the victim when it was killed")
	}
	close(errCh)
	close(okCh)
	for err := range errCh {
		t.Errorf("request failed despite a surviving replica: %v", err)
	}
	n := 0
	for got := range okCh {
		n++
		if rmse := tensor.RMSE(want, got); rmse > 0.05 {
			t.Errorf("survivor answered wrong result: RMSE %v", rmse)
		}
	}
	if n != reqs {
		t.Fatalf("%d successful answers for %d requests", n, reqs)
	}
}

// replyHole is a TCP relay in front of one daemon: it forwards every
// request frame and withholds every reply, so the requests it forwarded
// stay in flight until the daemon drops the connection — and then the
// relay drops its client's connection too.
type replyHole struct {
	ln        net.Listener
	forwarded atomic.Int64 // frames forwarded to the daemon
	want      int64        // all is closed once forwarded reaches want
	all       chan struct{}

	mu    sync.Mutex
	conns []net.Conn // client-side connections, for close
}

func newReplyHole(t *testing.T, backend string, want int64) *replyHole {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &replyHole{ln: ln, want: want, all: make(chan struct{})}
	t.Cleanup(h.close)
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			go h.relay(down, backend)
		}
	}()
	return h
}

func (h *replyHole) addr() string { return h.ln.Addr().String() }

// close stops accepting and drops every client-side connection, which
// fails whatever the relay still holds in flight.
func (h *replyHole) close() {
	h.ln.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.conns {
		c.Close()
	}
}

func (h *replyHole) relay(down net.Conn, backend string) {
	defer down.Close()
	h.mu.Lock()
	h.conns = append(h.conns, down)
	h.mu.Unlock()
	up, err := net.Dial("tcp", backend)
	if err != nil {
		return
	}
	defer up.Close()
	go func() {
		defer up.Close()
		fr := server.NewFrameReader(down)
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			err = server.EncodeFrame(up, f)
			f.Release()
			if err != nil {
				return
			}
			if h.forwarded.Add(1) == h.want {
				close(h.all)
			}
		}
	}()
	io.Copy(io.Discard, up) // the replies, until the daemon hangs up
}

// TestShedMemberFailsOverOnce: a member that sheds every operator frame
// receives each request once and the router fails it over to the next
// replica. The router's member client sends once (Forward never
// retries), so the shedding member's frame count equals the shed
// failovers and no trace ID reaches it twice.
func TestShedMemberFailsOverOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var (
		mu     sync.Mutex
		frames int
		seen   = make(map[uint64]int) // trace ID → frames carrying it
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := server.DecodeFrame(conn, 0)
					if err != nil {
						return
					}
					mu.Lock()
					frames++
					seen[f.TraceID]++
					mu.Unlock()
					shed := &server.Frame{Type: server.MsgError, ReqID: f.ReqID, TraceID: f.TraceID,
						Payload: server.ErrorPayload(server.ErrOverloaded)}
					if server.EncodeFrame(conn, shed) != nil {
						return
					}
				}
			}()
		}
	}()
	d := startDaemon(t, server.Config{Devices: 1})
	r := startRouter(t, Config{Members: []string{ln.Addr().String()}}, d)
	c := dialRouter(t, r)

	// Distinct weights are distinct placement keys, so rendezvous ranks
	// the shedding member first for about half of them.
	const n = 32
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		a := tensor.RandUniform(rng, 4, 8, -1, 1)
		b := tensor.RandUniform(rng, 8, 8, -1, 1)
		got, err := c.Gemm(a, b, nil)
		if err != nil {
			t.Fatalf("GEMM %d: %v", i, err)
		}
		if e := tensor.RMSE(blas.NaiveGemm(a, b), got); e > 0.05 {
			t.Fatalf("GEMM %d: RMSE %v", i, e)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if frames == 0 {
		t.Fatalf("the shedding member ranked first for none of %d keys", n)
	}
	if shed := r.met.failovers.With("shed").Value(); float64(frames) != shed {
		t.Fatalf("shedding member got %d frames, router counted %v shed failovers", frames, shed)
	}
	for id, k := range seen {
		if k > 1 {
			t.Fatalf("trace %016x reached the shedding member %d times", id, k)
		}
	}
	t.Logf("%d of %d requests shed once and failed over", frames, n)
}
