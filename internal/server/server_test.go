package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// startServer boots a daemon on an ephemeral port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return serveOn(t, New(cfg))
}

// serveOn is startServer for a daemon the test built (and rigged)
// itself.
func serveOn(t *testing.T, srv *Server) *Server {
	t.Helper()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func refAdd(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// TestConcurrentConnectionsMixedOps is the acceptance workload: 32
// concurrent client connections each stream a mix of operators
// against the shared context; every request must receive exactly one
// correct reply (the per-request ID multiplexing is what rules out
// lost or duplicated replies — a misrouted frame would surface as a
// wrong-shaped or wrong-valued result on some other call).
func TestConcurrentConnectionsMixedOps(t *testing.T) {
	srv := startServer(t, Config{Devices: 2, MaxInFlight: 256})

	const conns = 32
	const roundsPerConn = 3
	var wg sync.WaitGroup
	errs := make(chan error, conns*roundsPerConn*4)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for r := 0; r < roundsPerConn; r++ {
				n := 16 + 8*(ci%3)
				a := tensor.RandUniform(rng, n, n, -1, 1)
				b := tensor.RandUniform(rng, n, n, -1, 1)

				// Two calls in flight on the same connection at once,
				// exercising reply multiplexing.
				var inner sync.WaitGroup
				inner.Add(2)
				go func() {
					defer inner.Done()
					got, err := c.Gemm(a, b, nil)
					if err != nil {
						errs <- fmt.Errorf("conn %d gemm: %w", ci, err)
						return
					}
					if e := tensor.RMSE(blas.NaiveGemm(a, b), got); e > 0.05 {
						errs <- fmt.Errorf("conn %d gemm RMSE %v", ci, e)
					}
				}()
				go func() {
					defer inner.Done()
					got, err := c.Add(a, b, nil)
					if err != nil {
						errs <- fmt.Errorf("conn %d add: %w", ci, err)
						return
					}
					if e := tensor.RMSE(refAdd(a, b), got); e > 0.05 {
						errs <- fmt.Errorf("conn %d add RMSE %v", ci, e)
					}
				}()
				inner.Wait()

				mean, err := c.Mean(a, nil)
				if err != nil {
					errs <- fmt.Errorf("conn %d mean: %w", ci, err)
					continue
				}
				var want float64
				for _, v := range a.Data {
					want += float64(v)
				}
				want /= float64(len(a.Data))
				if d := float64(mean) - want; d > 0.05 || d < -0.05 {
					errs <- fmt.Errorf("conn %d mean %v, want %v", ci, mean, want)
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The daemon notices closed connections asynchronously; the gauge
	// must settle back to zero shortly after.
	deadline := time.Now().Add(5 * time.Second)
	for srv.door.connections.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("connection gauge %v after all clients closed, want 0", srv.door.connections.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsTyped drives a capacity-1 daemon into overflow:
// the overflow request must come back as ErrOverloaded immediately
// (no hangs), and service must resume once the slot frees. The slot
// is pinned directly rather than by racing concurrent calls — on a
// single-core host the connection read loop serializes requests so a
// flood never reliably overlaps two in-flight executions.
func TestOverloadShedsTyped(t *testing.T) {
	srv := startServer(t, Config{Devices: 1, MaxInFlight: 1})
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(9))
	a := tensor.RandUniform(rng, 192, 192, -1, 1)
	b := tensor.RandUniform(rng, 192, 192, -1, 1)

	if err := srv.adm.tryAcquire(); err != nil {
		t.Fatalf("priming the only slot: %v", err)
	}
	if _, err := c.Gemm(a, b, &CallOpts{NoBatch: true}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full server returned %v, want ErrOverloaded", err)
	}
	if got := srv.met.shed.Value(); got != 1 {
		t.Errorf("shed counter %v, want 1", got)
	}
	srv.adm.release()
	if _, err := c.Gemm(a, b, &CallOpts{NoBatch: true}); err != nil {
		t.Fatalf("request after slot release failed: %v", err)
	}
}

// TestDeadlinePropagates expires a request's deadline while it waits
// behind its key's in-flight batch: the reply must be the typed
// deadline error, and no result may be fabricated.
func TestDeadlinePropagates(t *testing.T) {
	srv := New(Config{Devices: 1})
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(4))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	leader := make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, nil)
		leader <- err
	}()
	gate.waitRunning(t)
	late := make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, &CallOpts{Deadline: 20 * time.Millisecond})
		late <- err
	}()
	waitPending(t, srv.bat, 1)
	time.Sleep(40 * time.Millisecond) // the pending call's deadline passes
	gate.open()

	if err := <-late; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if err := <-leader; err != nil {
		t.Fatalf("in-flight leader failed: %v", err)
	}
	if srv.door.replies.With("deadline").Value() == 0 {
		t.Error(`replies{status="deadline"} did not move`)
	}
}

// TestBatcherCoalesces holds a key's batch running and sends riders
// sharing its weight matrix meanwhile: they must leave as one stacked
// submission the moment the running batch returns, and every caller
// must still get its own correct row band.
func TestBatcherCoalesces(t *testing.T) {
	const riders = 4
	srv := New(Config{Devices: 1})
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(11))
	weights := tensor.RandUniform(rng, 24, 24, -1, 1)
	as := make([]*tensor.Matrix, riders+1) // as[0] is the leader
	for i := range as {
		as[i] = tensor.RandUniform(rng, 6+2*i, 24, -1, 1)
	}

	var wg sync.WaitGroup
	outs := make([]*tensor.Matrix, len(as))
	errs := make([]error, len(as))
	call := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = c.Gemm(as[i], weights, nil)
		}()
	}
	call(0)
	gate.waitRunning(t)
	for i := 1; i <= riders; i++ {
		call(i)
	}
	waitPending(t, srv.bat, riders)
	gate.open()
	wg.Wait()

	for i := range as {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if outs[i].Rows != as[i].Rows || outs[i].Cols != weights.Cols {
			t.Fatalf("caller %d got %dx%d, want %dx%d",
				i, outs[i].Rows, outs[i].Cols, as[i].Rows, weights.Cols)
		}
		if e := tensor.RMSE(blas.NaiveGemm(as[i], weights), outs[i]); e > 0.05 {
			t.Errorf("caller %d RMSE %v", i, e)
		}
	}
	if got := srv.met.batches.Value(); got != 2 {
		t.Errorf("batches flushed = %v, want 2 (the leader, then the riders as one)", got)
	}
	if got := srv.met.batchedReqs.Value(); got != riders+1 {
		t.Errorf("batched requests = %v, want %d", got, riders+1)
	}
	// The riders' batch found the leader's weights in the cache
	// (skipping their re-quantization).
	if srv.met.weightHits.Value() == 0 {
		t.Error("weight cache did not hit on repeated weights")
	}
}

// TestShutdownDrainsInflight starts a slow request, then shuts down
// mid-flight: the request must complete with its real result and
// Shutdown must wait for it.
func TestShutdownDrainsInflight(t *testing.T) {
	srv := New(Config{Devices: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(2))
	a := tensor.RandUniform(rng, 256, 256, -1, 1)
	b := tensor.RandUniform(rng, 256, 256, -1, 1)

	type res struct {
		m   *tensor.Matrix
		err error
	}
	done := make(chan res, 1)
	go func() {
		m, err := c.Gemm(a, b, &CallOpts{NoBatch: true})
		done <- res{m, err}
	}()
	// Wait until the daemon has actually admitted the request before
	// pulling the plug (the wire transfer itself takes a while under
	// the race detector).
	for deadline := time.Now().Add(10 * time.Second); srv.door.requests.With("gemm").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the daemon")
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal("Shutdown:", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", r.err)
	}
	if e := tensor.RMSE(blas.NaiveGemm(a, b), r.m); e > 0.05 {
		t.Fatalf("drained request returned wrong result (RMSE %v)", e)
	}
	// Idempotent second shutdown.
	if err := srv.Shutdown(); err != nil {
		t.Fatal("second Shutdown:", err)
	}
	// The connection is gone; a new call fails fast instead of hanging.
	if _, err := c.Gemm(a, b, nil); err == nil {
		t.Fatal("call after shutdown succeeded")
	}
}

// TestVersionMismatchAnswered sends a frame with a future protocol
// version: the daemon must answer that request ID with CodeVersion
// and keep the connection serviceable. (The cluster package's
// TestFrameVersionMismatch covers v1 frames and the router too.)
func TestVersionMismatchAnswered(t *testing.T) {
	srv := startServer(t, Config{Devices: 1})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(forgeFrame(Version+1, MsgPing, 77, make([]byte, 8))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	f, err := DecodeFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgError || f.ReqID != 77 {
		t.Fatalf("want MsgError for req 77, got type %s req %d", f.Type, f.ReqID)
	}
	code, _, err := decodeError(f.Payload)
	if err != nil || code != CodeVersion {
		t.Fatalf("want CodeVersion, got code %d err %v", code, err)
	}

	// Same connection still serves current-version frames.
	var raw bytes.Buffer
	_ = EncodeFrame(&raw, &Frame{Type: MsgPing, ReqID: 78})
	if _, err := conn.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	f, err = DecodeFrame(br, 0)
	if err != nil || f.Type != MsgPong || f.ReqID != 78 {
		t.Fatalf("connection unusable after version error: %v %+v", err, f)
	}
}

// TestVersionNegotiation: the client speaks one layout and does not
// negotiate. A peer answering CodeVersion surfaces ErrVersionMismatch
// to the caller, and the client never resends the request in another
// version.
func TestVersionNegotiation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	seen := make(chan *Frame, 8)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			f, err := DecodeFrame(conn, 0)
			if f != nil {
				seen <- f
			}
			if err != nil && !errors.Is(err, ErrVersionMismatch) {
				return
			}
			if EncodeFrame(conn, &Frame{Type: MsgError, ReqID: f.ReqID, Payload: encodeError(CodeVersion, "only v9")}) != nil {
				return
			}
		}
	}()

	c, err := DialRetry(ln.Addr().String(), RetryPolicy{Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := tensor.New(4, 4)
	if _, err := c.Gemm(a, a, &CallOpts{NoBatch: true}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("want ErrVersionMismatch, got %v", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ping: want ErrVersionMismatch, got %v", err)
	}
	for i, want := range []MsgType{MsgGemm, MsgPing} {
		f := <-seen
		if f.Version != Version || f.Type != want {
			t.Fatalf("frame %d: v%d %s, want v%d %s", i, f.Version, f.Type, Version, want)
		}
	}
	select {
	case f := <-seen:
		t.Fatalf("client resent a rejected request: v%d %s", f.Version, f.Type)
	default:
	}
	if n := c.retries.Load(); n != 0 {
		t.Fatalf("client retried a version mismatch %d times", n)
	}
}

// TestLegacyClientAgainstCurrentServer: a v1 client's GEMM is not
// served. The daemon answers it with CodeVersion on its own request ID,
// keeps the connection, and serves the same GEMM sent as v2.
func TestLegacyClientAgainstCurrentServer(t *testing.T) {
	srv := startServer(t, Config{Devices: 1})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	rng := rand.New(rand.NewSource(10))
	a := tensor.RandUniform(rng, 16, 16, -1, 1)
	b := tensor.RandUniform(rng, 16, 16, -1, 1)
	payload := encodeOpRequest(&OpRequest{Op: MsgGemm, A: a, B: b}).Data

	if _, err := conn.Write(forgeFrame(1, MsgGemm, 5, payload)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	f, err := DecodeFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgError || f.ReqID != 5 {
		t.Fatalf("v1 GEMM answered with %s on req %d, want an error on req 5", f.Type, f.ReqID)
	}
	if code, _, err := decodeError(f.Payload); err != nil || code != CodeVersion {
		t.Fatalf("v1 GEMM: want CodeVersion, got code %d err %v", code, err)
	}

	if err := EncodeFrame(conn, &Frame{Type: MsgGemm, ReqID: 6, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if f, err = DecodeFrame(br, 0); err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgResult || f.ReqID != 6 {
		t.Fatalf("v2 GEMM answered with %s on req %d", f.Type, f.ReqID)
	}
	got, _, err := decodeMatrix(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e := tensor.RMSE(blas.NaiveGemm(a, b), got); e > 0.05 {
		t.Fatalf("gemm RMSE %v", e)
	}
}

// TestBadShapeTyped verifies shape mismatches come back as
// ErrBadRequest without disturbing the daemon.
func TestBadShapeTyped(t *testing.T) {
	srv := startServer(t, Config{Devices: 1})
	c := dial(t, srv)
	a := tensor.New(4, 5)
	b := tensor.New(4, 5) // inner dims 5 vs 4: invalid for GEMM
	if _, err := c.Gemm(a, b, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal("daemon unhealthy after bad request:", err)
	}
}

// TestLoopbackBadShapeClassOnce: the daemon sends the wrapped error's
// full text and the client re-wraps the sentinel, so the class text
// must be stripped once in between — it reads exactly once.
func TestLoopbackBadShapeClassOnce(t *testing.T) {
	srv, c, err := Loopback(Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	defer c.Close()
	_, err = c.Gemm(tensor.New(4, 5), tensor.New(4, 5), nil)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if n := strings.Count(err.Error(), ErrBadRequest.Error()); n != 1 {
		t.Fatalf("class text %d times in %q, want once", n, err)
	}
}

// TestGemmResultCapRejected sends an outer-product GEMM whose
// operands are tiny on the wire but whose result (5000x5000, ~95 MiB)
// exceeds the reply frame cap: the daemon must shed it up front with
// ErrBadRequest — never allocate the result, never drop the reply and
// leave the client hanging.
func TestGemmResultCapRejected(t *testing.T) {
	srv := startServer(t, Config{Devices: 1})
	c := dial(t, srv)
	a := tensor.New(5000, 1)
	b := tensor.New(1, 5000)
	if _, err := c.Gemm(a, b, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest for oversized result, got %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal("daemon unhealthy after oversized-result request:", err)
	}
}

// TestBatcherHashCollisionSafe forges two weight matrices sharing one
// batchKey (as an adversarial FNV collision would) and verifies
// byte-comparison keeps them apart: the collider is refused from the
// pending group, and a later group under the same key is not served
// from the poisoned weight-buffer cache.
func TestBatcherHashCollisionSafe(t *testing.T) {
	srv := New(Config{Devices: 1})
	srv.bat.maxReqs = 2
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)
	bat := srv.bat

	rng := rand.New(rand.NewSource(7))
	const n = 8
	w1 := tensor.RandUniform(rng, n, n, -1, 1)
	w2 := tensor.RandUniform(rng, n, n, -1, 1)
	a := tensor.RandUniform(rng, 2, n, -1, 1)
	key := batchKey{n: n, k: n, bhash: 0xdecafbad} // forged: same for both weights

	newCall := func() *gemmCall {
		return &gemmCall{a: a, done: make(chan callResult, 1)}
	}
	// An accepted submit takes the weight matrix over (the batcher may
	// return it to the float32 pool), so each call hands in its own copy
	// — as the daemon does, where every request decodes its own.
	c0 := newCall()
	if !bat.submit(key, w1.Clone(), c0) { // idle key: runs at once, held by the gate
		t.Fatal("leader submit refused")
	}
	gate.waitRunning(t)
	c1 := newCall()
	if !bat.submit(key, w1.Clone(), c1) {
		t.Fatal("first pending submit refused")
	}
	if bat.submit(key, w2, newCall()) {
		t.Fatal("colliding weights joined a pending group — would compute against wrong matrix")
	}
	c2 := newCall()
	if !bat.submit(key, w1.Clone(), c2) { // hits maxReqs, cap-flushes
		t.Fatal("same-weight submit refused")
	}
	gate.open()
	for _, c := range []*gemmCall{c0, c1, c2} {
		res := <-c.done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if e := tensor.RMSE(blas.NaiveGemm(a, w1), res.m); e > 0.05 {
			t.Errorf("w1 band RMSE %v", e)
		}
	}
	waitIdle(t, bat)

	// w1's buffer is now cached under the forged key. A w2 group
	// reusing that key must detect the byte mismatch and compute with
	// fresh weights, not the cached w1.
	hits := srv.met.weightHits.Value()
	c3, c4 := newCall(), newCall()
	if !bat.submit(key, w2.Clone(), c3) || !bat.submit(key, w2.Clone(), c4) {
		t.Fatal("w2 group refused after w1 group retired")
	}
	for _, c := range []*gemmCall{c3, c4} {
		res := <-c.done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if e := tensor.RMSE(blas.NaiveGemm(a, w2), res.m); e > 0.05 {
			t.Errorf("w2 band RMSE %v (served from poisoned weight cache?)", e)
		}
	}
	if got := srv.met.weightHits.Value(); got != hits {
		t.Errorf("weight cache hits %v -> %v, want unchanged (colliding entry must not hit)", hits, got)
	}
}

// TestHugeDeadlineClamped sends a deadline just past the u32
// millisecond wire range and holds it behind an in-flight batch for
// longer than a wrapped (~1 ms) deadline: it must saturate (~49.7
// days), not wrap and expire.
func TestHugeDeadlineClamped(t *testing.T) {
	srv := New(Config{Devices: 1})
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)
	c := dial(t, srv)
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	leader := make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, nil)
		leader <- err
	}()
	gate.waitRunning(t)
	huge := make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, &CallOpts{Deadline: (1<<32 + 1) * time.Millisecond})
		huge <- err
	}()
	waitPending(t, srv.bat, 1)
	time.Sleep(5 * time.Millisecond)
	gate.open()
	if err := <-huge; err != nil {
		t.Fatalf("huge deadline failed (wrapped instead of clamped?): %v", err)
	}
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
}
