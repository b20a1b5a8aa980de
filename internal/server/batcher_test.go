package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/tensor"
)

// flushGate holds every drain-loop flush of a batcher at its start
// until open: a key whose batch is held stays busy, so arrivals
// accumulate in its pending group.
type flushGate struct {
	running chan struct{} // one token per flush that reached the gate
	release chan struct{}
	once    sync.Once
}

// holdFlushes installs a flushGate on b. Call it before b sees its
// first submit (for a daemon: before serveOn).
func holdFlushes(b *batcher) *flushGate {
	// running's buffer only has to outlast the flushes one test holds;
	// a token beyond it is dropped, never blocks a flush.
	g := &flushGate{running: make(chan struct{}, 256), release: make(chan struct{})}
	b.flushHook = func(batchKey) func() {
		select {
		case g.running <- struct{}{}:
		default:
		}
		<-g.release
		return func() {}
	}
	return g
}

// waitRunning blocks until a flush is held at the gate. From then on
// the test's cleanup opens the gate, so a failing test never strands
// the held flush (and the daemon's drain behind it).
func (g *flushGate) waitRunning(t *testing.T) {
	t.Helper()
	t.Cleanup(g.open)
	select {
	case <-g.running:
	case <-time.After(10 * time.Second):
		t.Fatal("no flush reached the gate")
	}
}

func (g *flushGate) open() { g.once.Do(func() { close(g.release) }) }

// pendingCalls counts the calls waiting in pending groups.
func (b *batcher) pendingCalls() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.groups {
		if g != nil {
			n += len(g.calls)
		}
	}
	return n
}

// waitPending polls until exactly n calls wait in pending groups.
func waitPending(t *testing.T, b *batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.pendingCalls() != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls pending, want %d", b.pendingCalls(), n)
		}
	}
}

// waitIdle polls until no key is running (so no group is pending).
func waitIdle(t *testing.T, b *batcher) {
	t.Helper()
	idle := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.groups) == 0
	}
	for deadline := time.Now().Add(10 * time.Second); !idle(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("batcher never went idle")
		}
	}
}

func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return WeightEqual(a, b)
}

// TestBatchOfOneBitIdentical pins the batch-of-one fast path: a GEMM
// that flushes alone computes straight over its own A and gets the
// result whole. Its reply must be bit-identical to the stacked path
// run with that one rider (stack, stacked GEMM, band copy) and to a
// NoBatch reply of the same pair.
func TestBatchOfOneBitIdentical(t *testing.T) {
	srv := startServer(t, Config{Devices: 1})
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(12))
	a := tensor.RandUniform(rng, 12, 32, -1, 1)
	w := tensor.RandUniform(rng, 32, 20, -1, 1)

	alone, err := c.Gemm(a, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.met.batchedReqs.Value(); got != 1 {
		t.Fatalf("batched requests = %v, want 1 (the call must ride the batcher)", got)
	}
	unbatched, err := c.Gemm(a, w, &CallOpts{NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}

	gx := srv.Runtime()
	stacked := stackRows([]*gemmCall{{a: a}}, a.Rows, a.Cols)
	ab, wb := gx.CreateMatrixBuffer(stacked), gx.CreateMatrixBuffer(w)
	var out *tensor.Matrix
	if err := gx.Enqueue(func(op *gptpu.Op) { out = op.Gemm(ab, wb) }).Wait(); err != nil {
		t.Fatal(err)
	}
	band := tensor.New(a.Rows, w.Cols)
	band.CopyFrom(out.View(0, 0, a.Rows, w.Cols))

	if !sameBits(alone, band) {
		t.Error("batch-of-one reply differs from the stacked path with one rider")
	}
	if !sameBits(alone, unbatched) {
		t.Error("batch-of-one reply differs from the NoBatch reply")
	}
}

// TestBatcherStateMachine is the batcher's state-machine oracle, run
// over random caps: goroutines × keys of concurrent submits against a
// runtime whose batches block on a channel until a feeder lets them
// through one at a time. Every call must be answered exactly once with
// its own correct band, no key may have two drain-loop (non-cap)
// flushes in flight at once, and once the traffic stops the batcher
// must hold no pending group, no busy key and no goroutine. A forged
// key carries two hash-colliding weights: a submit that meets the
// other weight's pending group must be refused (the daemon serves it
// unbatched), never computed against the wrong matrix.
func TestBatcherStateMachine(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { batcherOracle(t, seed) })
	}
}

func batcherOracle(t *testing.T, seed int64) {
	const (
		workers = 6
		calls   = 12
		keys    = 3
		n       = 8
	)
	rng := rand.New(rand.NewSource(seed))
	maxReqs, maxRows := 1+rng.Intn(5), 4+rng.Intn(40)

	gx := gptpu.Open(gptpu.Config{Devices: 1})
	defer gx.Close()
	baseline := runtime.NumGoroutine()
	b := newBatcher(gx, newServerMetrics(nil), maxReqs)
	b.maxRows = maxRows // small enough that the row cap fires too

	// Weights: keys ordinary keys, plus one forged key shared by the
	// colliding pair w[keys] and w[keys+1].
	w := make([]*tensor.Matrix, keys+2)
	bk := make([]batchKey, keys+2)
	for i := range w {
		w[i] = tensor.RandUniform(rng, n, n, -1, 1)
		bk[i] = batchKey{n: n, k: n, bhash: WeightKey(w[i])}
	}
	bk[keys].bhash, bk[keys+1].bhash = 0xdecafbad, 0xdecafbad

	var (
		mu       sync.Mutex
		running  = map[batchKey]int{} // drain flushes in flight per key
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	step := make(chan struct{})
	b.flushHook = func(key batchKey) func() {
		mu.Lock()
		running[key]++
		if running[key] > 1 {
			failures = append(failures, fmt.Sprintf("key %x: %d drain flushes in flight", key.bhash, running[key]))
		}
		mu.Unlock()
		<-step
		return func() {
			mu.Lock()
			running[key]--
			mu.Unlock()
		}
	}

	newCall := func(rows int) *gemmCall {
		// done has room for a second reply, so a duplicate answer is
		// observable instead of blocking the flush forever.
		return &gemmCall{a: tensor.RandUniform(rng, rows, n, -1, 1), arrived: time.Now(), done: make(chan callResult, 2)}
	}

	// Deterministic collision: hold the forged key busy, open its
	// pending group with w[keys], then offer w[keys+1].
	// (With a one-call cap there is never a pending group to meet.)
	lead, pend := newCall(2), newCall(2)
	if !b.submit(bk[keys], w[keys].Clone(), lead) || !b.submit(bk[keys], w[keys].Clone(), pend) {
		t.Fatal("same-weight submit refused")
	}
	if maxReqs > 1 && b.submit(bk[keys], w[keys+1].Clone(), newCall(2)) {
		t.Fatal("hash-colliding weight joined the pending group")
	}

	type sent struct {
		c *gemmCall
		w *tensor.Matrix
	}
	all := []sent{{lead, w[keys]}, {pend, w[keys]}}
	stop := make(chan struct{})
	frng := rand.New(rand.NewSource(seed))
	go func() { // the "device": lets held batches through one at a time
		for {
			select {
			case step <- struct{}{}:
				time.Sleep(time.Duration(frng.Intn(200)) * time.Microsecond)
			case <-stop:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	out := make([][]sent, workers)
	for g := 0; g < workers; g++ {
		wrng := rand.New(rand.NewSource(seed*100 + int64(g)))
		cs := make([]*gemmCall, calls)
		for i := range cs {
			cs[i] = &gemmCall{a: tensor.RandUniform(wrng, 1+wrng.Intn(8), n, -1, 1), done: make(chan callResult, 2)}
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, c := range cs {
				i := wrng.Intn(len(w))
				c.arrived = time.Now()
				if b.submit(bk[i], w[i].Clone(), c) {
					out[g] = append(out[g], sent{c, w[i]})
				} else if i < keys {
					fail("submit under a non-colliding key %d refused", i)
				}
				if wrng.Intn(3) == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, o := range out {
		all = append(all, o...)
	}
	for i, s := range all {
		select {
		case res := <-s.c.done:
			if res.err != nil {
				fail("call %d: %v", i, res.err)
				continue
			}
			if res.m.Rows != s.c.a.Rows || res.m.Cols != n {
				fail("call %d: %dx%d, want %dx%d", i, res.m.Rows, res.m.Cols, s.c.a.Rows, n)
				continue
			}
			if e := tensor.RMSE(blas.NaiveGemm(s.c.a, s.w), res.m); e > 0.05 {
				fail("call %d: RMSE %v against its own weights", i, e)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d never answered", i)
		}
	}
	waitIdle(t, b)
	close(stop)
	for i, s := range all {
		if len(s.c.done) != 0 {
			fail("call %d answered twice", i)
		}
	}
	for _, f := range failures {
		t.Error(f)
	}
	// Every drain loop and cap flush has returned, and the runtime's
	// dispatch workers retire once idle.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after drain, want <= %d", runtime.NumGoroutine(), baseline)
		}
	}
}
