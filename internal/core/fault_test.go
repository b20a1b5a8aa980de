package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/tensor"
)

// faultWorkload runs a fixed multi-operator workload under a fault plan
// and returns the virtual makespan and scheduler stats.
func faultWorkload(t *testing.T, fc *fault.Config, workers int) (float64, Stats, *tensor.Matrix) {
	t.Helper()
	ctx := NewContext(Config{Devices: 4, DispatchWorkers: workers, Fault: fc})
	defer ctx.Close()

	rng := rand.New(rand.NewSource(99))
	a := tensor.RandUniform(rng, 200, 200, -1, 1)
	b := tensor.RandUniform(rng, 200, 200, -1, 1)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)

	s := ctx.NewOp()
	out := s.Gemm(ba, bb)
	s.Add(ba, bb)
	s.Mul(ba, bb)
	s.Mean(ba)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	return ctx.Elapsed().Seconds(), ctx.Stats(), out
}

func TestFaultInjectionDeterministicMakespan(t *testing.T) {
	// The injector's PRNG is consumed only from the serialized charge
	// phase and its timed events fire against the virtual clock, so two
	// runs with the same seed and plan — at any worker count — must
	// inject identical fault sequences and produce bit-identical virtual
	// makespans.
	fc := &fault.Config{
		Seed:          7,
		TransientProb: 0.15,
		Kill:          []fault.Event{{Device: 1, At: 200 * time.Microsecond}},
		Revive:        []fault.Event{{Device: 1, At: 2 * time.Millisecond}},
		LinkScale:     map[int]float64{2: 1.5},
	}
	mk1, st1, _ := faultWorkload(t, fc, 1)
	mk2, st2, _ := faultWorkload(t, fc, 4)
	if mk1 <= 0 {
		t.Fatal("workload charged no virtual time")
	}
	if st1.TransientRetries == 0 {
		t.Fatal("fault plan injected no transient faults — the test exercises nothing")
	}
	if mk1 != mk2 {
		t.Fatalf("makespan diverged under faults: 1 worker %.12fs vs 4 workers %.12fs", mk1, mk2)
	}
	if st1.TransientRetries != st2.TransientRetries {
		t.Fatalf("transient retries diverged: %d vs %d", st1.TransientRetries, st2.TransientRetries)
	}
}

func TestTransientFaultsRetryToCorrectResult(t *testing.T) {
	mkClean, _, want := faultWorkload(t, nil, 4)
	mkFault, st, got := faultWorkload(t, &fault.Config{Seed: 3, TransientProb: 0.3}, 4)
	if st.TransientRetries == 0 {
		t.Fatal("no transient retries at probability 0.3")
	}
	if st.RetryBudgetExhausted != 0 {
		t.Fatal("budget must absorb probabilistic transients")
	}
	// Retries charge wasted execution plus backoff: strictly slower.
	if mkFault <= mkClean {
		t.Fatalf("faulted makespan %.9fs not above clean %.9fs", mkFault, mkClean)
	}
	// Functional results are unaffected — the retry re-executes exactly.
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("result diverged under transient faults at %d", i)
		}
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	o := Config{}
	o.Devices = 1
	o.Fault = &fault.Config{Seed: 1, TransientProb: 1} // every exec faults
	o.RetryBudget = 3
	ctx := NewContext(o)
	defer ctx.Close()

	s := ctx.NewOp()
	s.Add(ctx.CreateMatrixBuffer(tensor.New(8, 8)), ctx.CreateMatrixBuffer(tensor.New(8, 8)))
	if !errors.Is(s.Err(), ErrRetryBudget) {
		t.Fatalf("err=%v, want ErrRetryBudget", s.Err())
	}
	if ctx.Stats().RetryBudgetExhausted == 0 {
		t.Fatal("exhaustion metric did not count")
	}
}

// Regression: a device failure used to leave its affinity-table entries
// behind, and every later placement through such an entry was
// miscounted as an FCFS fallback. Stale entries must rebind — and count
// as rebinds.
func TestAffinityRebindOnDeviceLoss(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	rng := rand.New(rand.NewSource(4))
	a := tensor.RandUniform(rng, 100, 100, -1, 1)
	b := tensor.RandUniform(rng, 100, 100, -1, 1)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)

	s := ctx.NewOp()
	s.Add(ba, bb)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// Fail the device the inputs were bound to.
	var bound *int
	for _, d := range ctx.Pool.Devices {
		if d.Execs() > 0 {
			id := d.ID
			bound = &id
			break
		}
	}
	if bound == nil {
		t.Fatal("no device executed the first operator")
	}
	before := ctx.Stats()
	ctx.Pool.Devices[*bound].Fail()

	s.Add(ba, bb)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	after := ctx.Stats()
	if after.AffinityRebinds == before.AffinityRebinds {
		t.Fatal("stale affinity entries did not count as rebinds")
	}
	if after.FCFSFallbacks != before.FCFSFallbacks {
		t.Fatalf("rebinds miscounted as FCFS fallbacks (%d -> %d)",
			before.FCFSFallbacks, after.FCFSFallbacks)
	}
	// The rebound entry points at the survivor: a third pass is an
	// affinity hit again.
	s.Add(ba, bb)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	final := ctx.Stats()
	if final.AffinityHits <= after.AffinityHits {
		t.Fatal("rebound entry did not serve later placements")
	}
}

func TestNonFiniteInputsPoisonBuffer(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	bad := tensor.New(4, 4)
	bad.Data[5] = float32(math.NaN())
	good := ctx.CreateMatrixBuffer(tensor.FromSlice(4, 4, make([]float32, 16)))

	s := ctx.NewOp()
	s.Add(ctx.CreateMatrixBuffer(bad), good)
	if !errors.Is(s.Err(), ErrBadInput) {
		t.Fatalf("NaN input: err=%v, want ErrBadInput", s.Err())
	}

	// The same classification applies through the OPQ task path.
	task := ctx.Enqueue(func(s *Stream) { s.Mul(ctx.CreateMatrixBuffer(bad), good) })
	if err := task.Wait(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("task err=%v, want ErrBadInput", err)
	}

	// Invalidate rescans: mutating valid data to Inf poisons, and
	// restoring it heals.
	m := tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	buf := ctx.CreateMatrixBuffer(m)
	s2 := ctx.NewOp()
	s2.Add(buf, buf)
	if s2.Err() != nil {
		t.Fatal(s2.Err())
	}
	m.Data[0] = float32(math.Inf(1))
	ctx.Invalidate(buf)
	s3 := ctx.NewOp()
	s3.Add(buf, buf)
	if !errors.Is(s3.Err(), ErrBadInput) {
		t.Fatalf("post-Invalidate err=%v, want ErrBadInput", s3.Err())
	}
	m.Data[0] = 1
	ctx.Invalidate(buf)
	s4 := ctx.NewOp()
	s4.Add(buf, buf)
	if s4.Err() != nil {
		t.Fatalf("healed buffer still fails: %v", s4.Err())
	}
}

func TestShapeOnlyBuffersStayUsable(t *testing.T) {
	// Timing-only sweeps use ShapeOnly matrices with nil data; the
	// finiteness guard must not reject (or scan) them.
	ctx := NewContext(Config{TimingOnly: true})
	defer ctx.Close()
	s := ctx.NewOp()
	s.Add(ctx.CreateMatrixBuffer(tensor.ShapeOnly(64, 64)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(64, 64)))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if ctx.Elapsed() == 0 {
		t.Fatal("timing-only op charged nothing")
	}
}

// Regression: Reset's drain used to wait only for in-flight work, so a
// submission racing the Reset could enqueue between the drain and the
// rewind and charge virtual time across the discontinuity. The
// admission gate must hold racing submits back until the rewind is
// done.
func TestResetGatesRacingSubmissions(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	work := func() instrWork {
		return instrWork{
			instr:    isa.Instruction{Op: isa.Add, InRows: 4, InCols: 4},
			inputs:   []inputRef{{key: ctx.nextKey(), bytes: 16}},
			outBytes: 16,
		}
	}

	// Reference: what a single instruction charges on a fresh context.
	ref := testCtx(1)
	btRef := &batch{}
	ref.engine().submit([]instrWork{work()}, btRef)
	if _, err := btRef.collect(); err != nil {
		t.Fatal(err)
	}
	want := ref.Elapsed()
	ref.Close()

	// Hold one instruction in flight so Reset blocks in its drain.
	release := make(chan struct{})
	running := make(chan struct{})
	first := work()
	first.fn = func() {
		close(running)
		<-release
	}
	bt1 := &batch{}
	ctx.engine().submit([]instrWork{first}, bt1)
	<-running

	resetDone := make(chan struct{})
	go func() {
		ctx.Reset()
		close(resetDone)
	}()
	// Give Reset time to close the admission gate.
	time.Sleep(20 * time.Millisecond)

	bt2 := &batch{}
	submitted := make(chan struct{})
	go func() {
		ctx.engine().submit([]instrWork{work()}, bt2)
		close(submitted)
	}()
	select {
	case <-submitted:
		t.Fatal("submission was admitted while Reset was draining")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case <-resetDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not complete")
	}
	select {
	case <-submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("gated submission was never admitted after Reset")
	}
	if _, err := bt1.collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := bt2.collect(); err != nil {
		t.Fatal(err)
	}
	// The gated instruction charged entirely on the rewound timeline.
	if got := ctx.Elapsed(); got != want {
		t.Fatalf("makespan after gated submit = %v, want single-instruction %v", got, want)
	}
}
