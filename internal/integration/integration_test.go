// Package integration_test exercises cross-module scenarios: public
// API + runtime + device simulator + applications together, including
// invariants no single package can check.
package integration_test

import (
	"math"
	"math/rand"
	"testing"

	gptpu "repro"
	"repro/internal/apps/backprop"
	"repro/internal/apps/gaussian"
	"repro/internal/apps/lud"
	"repro/internal/apps/pagerank"
	"repro/internal/blas"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Functional results must be independent of the device count: the
// scheduler only changes placement and virtual time, never values.
func TestDeviceCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandUniform(rng, 200, 200, -3, 3)
	b := tensor.RandUniform(rng, 200, 200, -3, 3)
	var ref *tensor.Matrix
	for _, devs := range []int{1, 2, 8} {
		ctx := gptpu.Open(gptpu.Config{Devices: devs})
		op := ctx.NewOp()
		got := op.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		if op.Err() != nil {
			t.Fatal(op.Err())
		}
		if ref == nil {
			ref = got
			continue
		}
		if !got.Equal(ref) {
			t.Fatalf("results differ between device counts (devs=%d)", devs)
		}
	}
}

// Functional results must also be independent of the scheduling
// policy and compiler-path ablations.
func TestAblationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandUniform(rng, 150, 150, -2, 2)
	cfgs := []gptpu.Config{
		{},
		{DisableLocality: true},
		{UseTFLiteCompiler: true},
		{OnDeviceReduce: true},
	}
	var ref float32
	for i, cfg := range cfgs {
		ctx := gptpu.Open(cfg)
		op := ctx.NewOp()
		v := op.Mean(ctx.CreateMatrixBuffer(a))
		if op.Err() != nil {
			t.Fatal(op.Err())
		}
		if i == 0 {
			ref = v
			continue
		}
		if v != ref {
			t.Fatalf("config %d changed the functional result: %v vs %v", i, v, ref)
		}
	}
}

// A chain of dependent operators through the public API must stay
// numerically sane end to end: solve A x = b via Gaussian elimination
// on the device, then verify the residual against the original system.
func TestEndToEndLinearSolve(t *testing.T) {
	cfg := gaussian.Config{N: 160, Seed: 3}
	a := cfg.Generate()
	orig := a.Clone()
	ctx := gptpu.Open(gptpu.Config{Devices: 2})
	elim, _, err := gaussian.RunTPU(ctx, cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	x := gaussian.BackSubstitute(elim)
	var worst float64
	for i := 0; i < cfg.N; i++ {
		var acc float64
		for j := 0; j < cfg.N; j++ {
			acc += float64(orig.At(i, j)) * float64(x[j])
		}
		rel := math.Abs(acc-float64(orig.At(i, cfg.N))) / (math.Abs(float64(orig.At(i, cfg.N))) + 1)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.5 {
		t.Fatalf("worst relative residual %v", worst)
	}
}

// LUD through the device must reconstruct the original matrix, and a
// failure of half the pool mid-algorithm must not change the result.
func TestLUDSurvivesDeviceLoss(t *testing.T) {
	cfg := lud.Config{N: 384, Seed: 4}
	a := cfg.Generate()

	ctx := gptpu.Open(gptpu.Config{Devices: 4})
	// Lose two devices before the run (mid-run losses are exercised in
	// the core package; this checks the app level end to end).
	ctx.Pool.Devices[1].Fail()
	ctx.Pool.Devices[3].Fail()
	luOut, _, err := lud.RunTPU(ctx, cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	l, u := lud.SplitLU(luOut)
	if e := tensor.RMSE(a, blas.Gemm(l, u)); e > 0.06 {
		t.Fatalf("reconstruction RMSE %v after device loss", e)
	}
}

// Tracing an application run must account for every busy resource and
// roughly reconcile with the reported busy times.
func TestTraceReconcilesWithTimeline(t *testing.T) {
	cfg := pagerank.Config{N: 512, Iters: 5, Seed: 5}
	g := cfg.Generate()
	ctx := gptpu.Open(gptpu.Config{Devices: 2})
	ctx.TL.EnableTrace()
	if _, _, err := pagerank.RunTPU(ctx, cfg, g); err != nil {
		t.Fatal(err)
	}
	sums := trace.Summarize(ctx.TL)
	byName := map[string]float64{}
	for _, s := range sums {
		byName[s.Resource] = s.Busy.Seconds()
	}
	for _, r := range ctx.TL.Resources() {
		if r.BusyTime() == 0 {
			continue
		}
		got, ok := byName[r.Name]
		if !ok {
			t.Fatalf("resource %s busy but absent from trace", r.Name)
		}
		if math.Abs(got-r.BusyTime().Seconds()) > 1e-9 {
			t.Fatalf("%s: trace busy %v vs timeline %v", r.Name, got, r.BusyTime().Seconds())
		}
	}
}

// Tasks from different goroutines with interleaved dependencies: the
// task model must produce the same values as a serial run.
func TestParallelTaskEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mats := make([]*tensor.Matrix, 4)
	for i := range mats {
		mats[i] = tensor.RandUniform(rng, 96, 96, -2, 2)
	}

	// Serial reference.
	serial := make([]*tensor.Matrix, 4)
	{
		ctx := gptpu.Open(gptpu.Config{})
		op := ctx.NewOp()
		for i := range mats {
			serial[i] = op.Gemm(ctx.CreateMatrixBuffer(mats[i]), ctx.CreateMatrixBuffer(mats[(i+1)%4]))
		}
		if op.Err() != nil {
			t.Fatal(op.Err())
		}
	}

	// Parallel tasks.
	ctx := gptpu.Open(gptpu.Config{Devices: 4})
	results := make([]*tensor.Matrix, 4)
	for i := range mats {
		i := i
		ba := ctx.CreateMatrixBuffer(mats[i])
		bb := ctx.CreateMatrixBuffer(mats[(i+1)%4])
		ctx.Enqueue(func(op *gptpu.Op) {
			results[i] = op.Gemm(ba, bb)
		})
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !results[i].Equal(serial[i]) {
			t.Fatalf("task %d result differs from serial run", i)
		}
	}
}

// Virtual time must be monotone in problem size for a fixed workload
// (sanity for every performance sweep).
func TestVirtualTimeMonotoneInSize(t *testing.T) {
	var prev float64
	for _, n := range []int{256, 512, 1024} {
		ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
		op := ctx.NewOp()
		op.Gemm(ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n)))
		if op.Err() != nil {
			t.Fatal(op.Err())
		}
		now := ctx.Elapsed().Seconds()
		if now <= prev {
			t.Fatalf("time not monotone at n=%d: %v after %v", n, now, prev)
		}
		prev = now
	}
}

// Multi-epoch training entirely through the device path: the loss on
// the training batch must decrease monotonically-ish across epochs,
// i.e. int8 gradients are accurate enough to optimize with.
func TestMultiEpochTrainingConverges(t *testing.T) {
	cfg := backprop.Config{Batch: 128, In: 64, Hidden: 48, Out: 8, Seed: 7}
	w := cfg.Generate()

	loss := func(w1, w2 *tensor.Matrix) float64 {
		h1lin := blas.Gemm(w.X, w1)
		h1 := tensor.New(h1lin.Rows, h1lin.Cols)
		for i, v := range h1lin.Data {
			h1.Data[i] = float32((math.Tanh(float64(v)/2) + 1) / 2)
		}
		y := blas.Gemm(h1, w2)
		var l float64
		for i := range y.Data {
			d := float64(y.Data[i] - w.Target.Data[i])
			l += d * d
		}
		return l
	}

	prev := loss(w.W1, w.W2)
	first := prev
	for epoch := 0; epoch < 12; epoch++ {
		ctx := gptpu.Open(gptpu.Config{Devices: 2})
		res, _, err := backprop.RunTPU(ctx, cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		w.W1, w.W2 = res.W1, res.W2
		cur := loss(w.W1, w.W2)
		// Allow small non-monotonic wiggles from quantization noise.
		if cur > prev*1.05 {
			t.Fatalf("epoch %d: loss rose %v -> %v", epoch, prev, cur)
		}
		prev = cur
	}
	// int8 gradients stall once their signal drops under the
	// quantization noise — the loss plateaus rather than converging to
	// the float optimum, which is faithful low-precision behaviour.
	if prev > 0.90*first {
		t.Fatalf("12 epochs of device training cut loss only %v -> %v", first, prev)
	}
}
