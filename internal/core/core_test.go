package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func testCtx(devices int) *Context {
	return NewContext(Config{Devices: devices})
}

// refMatMul is the float reference for accuracy comparisons.
func refMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := float64(a.At(i, k))
			for j := 0; j < b.Cols; j++ {
				out.Set(i, j, out.At(i, j)+float32(av*float64(b.At(k, j))))
			}
		}
	}
	return out
}

func TestPairwiseAddSubMul(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandUniform(rng, 200, 150, -10, 10)
	b := tensor.RandUniform(rng, 200, 150, -10, 10)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)
	s := ctx.NewOp()

	add := s.Add(ba, bb)
	sub := s.Sub(ba, bb)
	mul := s.Mul(ba, bb)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}

	refAdd, refSub, refMul := tensor.New(200, 150), tensor.New(200, 150), tensor.New(200, 150)
	for i := range a.Data {
		refAdd.Data[i] = a.Data[i] + b.Data[i]
		refSub.Data[i] = a.Data[i] - b.Data[i]
		refMul.Data[i] = a.Data[i] * b.Data[i]
	}
	if e := tensor.RMSE(refAdd, add); e > 0.02 {
		t.Errorf("add RMSE %v", e)
	}
	if e := tensor.RMSE(refSub, sub); e > 0.02 {
		t.Errorf("sub RMSE %v", e)
	}
	if e := tensor.RMSE(refMul, mul); e > 0.02 {
		t.Errorf("mul RMSE %v", e)
	}
	if s.Now() <= 0 {
		t.Fatal("stream clock did not advance")
	}
}

func TestPairwiseShapeMismatchPanics(t *testing.T) {
	ctx := testCtx(1)
	s := ctx.NewOp()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add(ctx.CreateMatrixBuffer(tensor.New(2, 2)), ctx.CreateMatrixBuffer(tensor.New(2, 3)))
}

// TestReduceRejectsEmptyOperand: Mean and Max of a 0xN or Nx0 operand
// have no value to report. The stream operator panics like any other
// shape check, Enqueue turns that into the task's error, and a graph
// refuses the node at construction.
func TestReduceRejectsEmptyOperand(t *testing.T) {
	ctx := testCtx(1)
	for _, shape := range [][2]int{{0, 4}, {4, 0}} {
		for _, op := range []string{"mean", "max"} {
			a := ctx.CreateMatrixBuffer(tensor.New(shape[0], shape[1]))
			reduce := func(s *Stream) {
				if op == "mean" {
					s.Mean(a)
				} else {
					s.Max(a)
				}
			}
			name := fmt.Sprintf("%s %dx%d", op, shape[0], shape[1])
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: stream operator did not panic", name)
					}
				}()
				reduce(ctx.NewOp())
			}()
			if err := ctx.Enqueue(reduce).Wait(); err == nil {
				t.Errorf("%s: Enqueue reported no error", name)
			}
			_ = ctx.Sync()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: graph node construction did not panic", name)
					}
				}()
				g := ctx.NewGraph()
				if op == "mean" {
					g.Mean(a)
				} else {
					g.MaxReduce(a)
				}
			}()
		}
	}
}

func TestElementwise(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandUniform(rng, 100, 100, -2, 2)
	ba := ctx.CreateMatrixBuffer(a)
	s := ctx.NewOp()

	th := s.Tanh(ba)
	re := s.ReLU(ba)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	refT, refR := tensor.New(100, 100), tensor.New(100, 100)
	for i, v := range a.Data {
		refT.Data[i] = float32(math.Tanh(float64(v)))
		if v > 0 {
			refR.Data[i] = v
		}
	}
	if e := tensor.RMSE(refT, th); e > 0.02 {
		t.Errorf("tanh RMSE %v", e)
	}
	if e := tensor.RMSE(refR, re); e > 0.02 {
		t.Errorf("relu RMSE %v", e)
	}
}

func TestReduceMeanMax(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandUniform(rng, 200, 130, 0, 50)
	ba := ctx.CreateMatrixBuffer(a)
	s := ctx.NewOp()

	mean := s.Mean(ba)
	max := s.Max(ba)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	var refMean float64
	refMax := float32(math.Inf(-1))
	for _, v := range a.Data {
		refMean += float64(v)
		if v > refMax {
			refMax = v
		}
	}
	refMean /= float64(len(a.Data))
	if math.Abs(float64(mean)-refMean)/refMean > 0.02 {
		t.Errorf("mean %v want %v", mean, refMean)
	}
	if math.Abs(float64(max-refMax))/float64(refMax) > 0.02 {
		t.Errorf("max %v want %v", max, refMax)
	}
}

func TestOnDeviceReduceMatchesCPUAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.RandUniform(rng, 300, 300, -5, 5)

	o := Config{}
	ctxCPU := NewContext(o)
	o.OnDeviceReduce = true
	ctxDev := NewContext(o)

	s1, s2 := ctxCPU.NewOp(), ctxDev.NewOp()
	m1 := s1.Mean(ctxCPU.CreateMatrixBuffer(a))
	m2 := s2.Mean(ctxDev.CreateMatrixBuffer(a))
	if s1.Err() != nil || s2.Err() != nil {
		t.Fatal(s1.Err(), s2.Err())
	}
	if m1 != m2 {
		t.Fatalf("aggregation strategies disagree: %v vs %v", m1, m2)
	}
	// The paper rejects on-device reduction because data movement
	// dominates: the extra rounds must cost more virtual time.
	if ctxDev.Elapsed() <= ctxCPU.Elapsed() {
		t.Errorf("on-device reduce should be slower: %v vs %v", ctxDev.Elapsed(), ctxCPU.Elapsed())
	}
}

func TestCropExt(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandUniform(rng, 64, 64, -8, 8)
	ba := ctx.CreateMatrixBuffer(a)
	s := ctx.NewOp()

	crop := s.Crop(ba, 10, 20, 30, 40)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	ref := a.Crop(10, 20, 30, 40)
	if e := tensor.RMSE(ref, crop); e > 0.02 {
		t.Errorf("crop RMSE %v", e)
	}
	ext := s.Ext(ba, 100, 100)
	if ext.Rows != 100 || ext.Cols != 100 {
		t.Fatal("ext shape")
	}
	if ext.At(99, 99) != 0 {
		t.Fatal("ext padding must be zero")
	}
	if e := tensor.RMSE(a, ext.Crop(0, 0, 64, 64)); e > 0.02 {
		t.Errorf("ext body RMSE %v", e)
	}
}

func TestConv2DStencil(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(6))
	a := tensor.RandUniform(rng, 200, 170, 0, 10)
	k := tensor.FromSlice(3, 3, []float32{0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1})
	s := ctx.NewOp()
	got := s.Conv2D(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(k))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	ref := tensor.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			var acc float64
			for p := 0; p < 3 && i+p < a.Rows; p++ {
				for q := 0; q < 3 && j+q < a.Cols; q++ {
					acc += float64(a.At(i+p, j+q)) * float64(k.At(p, q))
				}
			}
			ref.Set(i, j, float32(acc))
		}
	}
	if e := tensor.RMSE(ref, got); e > 0.02 {
		t.Errorf("conv RMSE %v", e)
	}
}

func TestConv2DTilingSeamless(t *testing.T) {
	// Result across the 128-boundary must match the monolithic conv:
	// a constant input through a sum kernel is constant away from the
	// bottom/right edges; any seam would show at columns 126..129.
	ctx := testCtx(1)
	a := tensor.New(8, 260)
	a.Fill(1)
	k := tensor.FromSlice(2, 2, []float32{1, 1, 1, 1})
	s := ctx.NewOp()
	got := s.Conv2D(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(k))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	for c := 120; c < 135; c++ {
		if math.Abs(float64(got.At(3, c)-4)) > 0.1 {
			t.Fatalf("seam artifact at col %d: %v", c, got.At(3, c))
		}
	}
}

func TestMatVec(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(7))
	a := tensor.RandUniform(rng, 300, 200, -4, 4)
	x := make([]float32, 200)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	s := ctx.NewOp()
	got := s.MatVec(ctx.CreateMatrixBuffer(a), x)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	var maxAbs, errSum, refSum float64
	for i := 0; i < a.Rows; i++ {
		var acc float64
		for j := 0; j < a.Cols; j++ {
			acc += float64(a.At(i, j)) * float64(x[j])
		}
		d := acc - float64(got[i])
		errSum += d * d
		refSum += acc * acc
		if math.Abs(acc) > maxAbs {
			maxAbs = math.Abs(acc)
		}
	}
	if rmse := math.Sqrt(errSum / refSum); rmse > 0.03 {
		t.Errorf("matvec RMSE %v", rmse)
	}
}

func TestMatMulConvMatchesReference(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(8))
	a := tensor.RandUniform(rng, 150, 130, -3, 3)
	b := tensor.RandUniform(rng, 130, 170, -3, 3)
	s := ctx.NewOp()
	got := s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	ref := refMatMul(a, b)
	if e := tensor.RMSE(ref, got); e > 0.02 {
		t.Errorf("tpuGemm RMSE %v", e)
	}
}

func TestMatMulFCMatchesReference(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(9))
	a := tensor.RandUniform(rng, 140, 150, -3, 3)
	b := tensor.RandUniform(rng, 150, 90, -3, 3)
	s := ctx.NewOp()
	got := s.GemmFC(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	ref := refMatMul(a, b)
	if e := tensor.RMSE(ref, got); e > 0.02 {
		t.Errorf("FC GEMM RMSE %v", e)
	}
}

func TestConvGemmFasterThanFCGemm(t *testing.T) {
	// The mechanism behind Figure 6: same product, conv2D path must be
	// dramatically faster in virtual time (paper reports 43x at 4K).
	rng := rand.New(rand.NewSource(10))
	a := tensor.RandUniform(rng, 512, 512, -3, 3)
	b := tensor.RandUniform(rng, 512, 512, -3, 3)

	ctx1 := testCtx(1)
	s1 := ctx1.NewOp()
	s1.Gemm(ctx1.CreateMatrixBuffer(a), ctx1.CreateMatrixBuffer(b))
	convTime := ctx1.Elapsed()

	ctx2 := testCtx(1)
	s2 := ctx2.NewOp()
	s2.GemmFC(ctx2.CreateMatrixBuffer(a), ctx2.CreateMatrixBuffer(b))
	fcTime := ctx2.Elapsed()

	if s1.Err() != nil || s2.Err() != nil {
		t.Fatal(s1.Err(), s2.Err())
	}
	ratio := fcTime.Seconds() / convTime.Seconds()
	if ratio < 5 {
		t.Errorf("conv2D GEMM only %.1fx faster than FC GEMM", ratio)
	}
}

func TestMultiDeviceScaling(t *testing.T) {
	// Virtual-time speedup from adding Edge TPUs without code changes
	// (Figure 8 mechanism).
	rng := rand.New(rand.NewSource(11))
	a := tensor.RandUniform(rng, 512, 512, -3, 3)
	b := tensor.RandUniform(rng, 512, 512, -3, 3)
	elapsed := func(devs int) float64 {
		ctx := NewContext(Config{Devices: devs, TimingOnly: true})
		s := ctx.NewOp()
		s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		return ctx.Elapsed().Seconds()
	}
	t1, t8 := elapsed(1), elapsed(8)
	if t8 >= t1 {
		t.Fatalf("8 devices (%.4fs) not faster than 1 (%.4fs)", t8, t1)
	}
}

func TestTimingIndependentOfFunctionalFlag(t *testing.T) {
	// Virtual time must not depend on whether results are computed;
	// performance sweeps rely on this.
	rng := rand.New(rand.NewSource(12))
	a := tensor.RandUniform(rng, 256, 256, -3, 3)
	b := tensor.RandUniform(rng, 256, 256, -3, 3)
	run := func(functional bool) float64 {
		ctx := NewContext(Config{TimingOnly: !functional})
		s := ctx.NewOp()
		s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		s.MatVec(ctx.CreateMatrixBuffer(a), make([]float32, 256))
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		return ctx.Elapsed().Seconds()
	}
	f, nf := run(true), run(false)
	if math.Abs(f-nf)/f > 1e-9 {
		t.Fatalf("functional %.9f vs timing-only %.9f", f, nf)
	}
}

func TestBufferReuseIsCheaper(t *testing.T) {
	// Second MatVec with the same matrix must be cheaper: cached
	// quantization + on-device residency via the affinity rule.
	rng := rand.New(rand.NewSource(13))
	a := tensor.RandUniform(rng, 512, 512, -1, 1)
	x := make([]float32, 512)
	for i := range x {
		x[i] = rng.Float32()
	}
	ctx := testCtx(1)
	ba := ctx.CreateMatrixBuffer(a)
	s := ctx.NewOp()
	s.MatVec(ba, x)
	first := ctx.Elapsed()
	s.MatVec(ba, x)
	second := ctx.Elapsed() - first
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if second.Seconds() >= 0.7*first.Seconds() {
		t.Fatalf("reused iteration (%.6fs) should be well under first (%.6fs)", second.Seconds(), first.Seconds())
	}
}

func TestLocalityAblation(t *testing.T) {
	// Disabling the section 6.1 rule on a multi-device machine must
	// not make repeated iterations cheaper than with it enabled.
	rng := rand.New(rand.NewSource(14))
	a := tensor.RandUniform(rng, 1024, 1024, -1, 1)
	x := make([]float32, 1024)
	iter := func(locality bool) float64 {
		ctx := NewContext(Config{Devices: 4, TimingOnly: true, DisableLocality: !locality})
		ba := ctx.CreateMatrixBuffer(a)
		s := ctx.NewOp()
		for i := 0; i < 5; i++ {
			s.MatVec(ba, x)
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		return ctx.Elapsed().Seconds()
	}
	withLoc, without := iter(true), iter(false)
	if withLoc > without*1.01 {
		t.Fatalf("locality scheduling slower than FCFS: %.6f vs %.6f", withLoc, without)
	}
}

func TestFastModelPathAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := tensor.RandUniform(rng, 512, 512, -1, 1)
	b := tensor.RandUniform(rng, 512, 512, -1, 1)
	run := func(fast bool) float64 {
		ctx := NewContext(Config{TimingOnly: true, UseTFLiteCompiler: !fast})
		s := ctx.NewOp()
		s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		return ctx.Elapsed().Seconds()
	}
	fast, slow := run(true), run(false)
	if slow < 10*fast {
		t.Fatalf("TFLite compiler path should dominate: fast=%.4fs slow=%.4fs", fast, slow)
	}
}

func TestTasksRunInParallel(t *testing.T) {
	// Two independent OPQ tasks on a 2-device machine must finish
	// meaningfully faster than the same two tasks forced through one
	// device (Figure 4's out-of-order task parallelism).
	rng := rand.New(rand.NewSource(16))
	a := tensor.RandUniform(rng, 256, 256, -1, 1)
	b := tensor.RandUniform(rng, 256, 256, -1, 1)

	run := func(devices int) float64 {
		ctx := NewContext(Config{Devices: devices, TimingOnly: true})
		for i := 0; i < 2; i++ {
			ba, bb := ctx.CreateMatrixBuffer(a.Clone()), ctx.CreateMatrixBuffer(b.Clone())
			ctx.Enqueue(func(s *Stream) { s.Gemm(ba, bb) })
		}
		if err := ctx.Sync(); err != nil {
			t.Fatal(err)
		}
		return ctx.Elapsed().Seconds()
	}
	oneDev, twoDev := run(1), run(2)
	if twoDev > 0.7*oneDev {
		t.Fatalf("two devices should parallelize two tasks: 1 dev %.4fs, 2 dev %.4fs", oneDev, twoDev)
	}
}

func TestTaskPanicIsCaptured(t *testing.T) {
	ctx := testCtx(1)
	task := ctx.Enqueue(func(s *Stream) { panic("boom") })
	if err := task.Wait(); err == nil {
		t.Fatal("expected panic to surface as error")
	}
	// Sync drains the OPQ and reports the same sticky failure.
	if err := ctx.Sync(); err == nil {
		t.Fatal("sync must report the failed task")
	}
	// A second Sync has nothing left to report.
	if err := ctx.Sync(); err != nil {
		t.Fatal("second sync should be clean:", err)
	}
}

func TestDeviceFailureReroutes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := tensor.RandUniform(rng, 256, 256, -1, 1)
	b := tensor.RandUniform(rng, 256, 256, -1, 1)
	ctx := testCtx(4)
	ctx.Pool.Devices[0].Fail()
	ctx.Pool.Devices[2].Fail()
	s := ctx.NewOp()
	got := s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
	if s.Err() != nil {
		t.Fatal("work should reroute to healthy devices:", s.Err())
	}
	if e := tensor.RMSE(refMatMul(a, b), got); e > 0.02 {
		t.Errorf("RMSE after failover %v", e)
	}
	if ctx.Pool.Devices[0].Execs() != 0 || ctx.Pool.Devices[2].Execs() != 0 {
		t.Fatal("failed devices must not execute")
	}
}

func TestAllDevicesFailed(t *testing.T) {
	ctx := testCtx(2)
	for _, d := range ctx.Pool.Devices {
		d.Fail()
	}
	s := ctx.NewOp()
	s.Add(ctx.CreateMatrixBuffer(tensor.New(4, 4)), ctx.CreateMatrixBuffer(tensor.New(4, 4)))
	if s.Err() == nil {
		t.Fatal("expected ErrNoDevices")
	}
	// Sticky error: further ops are no-ops.
	if out := s.Tanh(ctx.CreateMatrixBuffer(tensor.New(4, 4))); out != nil {
		t.Fatal("stream with error must return nil results")
	}
}

func TestInvalidateForcesRequantization(t *testing.T) {
	ctx := testCtx(1)
	a := tensor.New(64, 64)
	a.Fill(1)
	ba := ctx.CreateMatrixBuffer(a)
	s := ctx.NewOp()
	if got := s.Mean(ba); math.Abs(float64(got)-1) > 0.02 {
		t.Fatalf("mean %v want 1", got)
	}
	// Host mutates the raw data: stale cache would return 1 again.
	a.Fill(3)
	ctx.Invalidate(ba)
	if got := s.Mean(ba); math.Abs(float64(got)-3) > 0.05 {
		t.Fatalf("mean after invalidate %v want 3", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	ctx := testCtx(1)
	rng := rand.New(rand.NewSource(18))
	a := tensor.RandUniform(rng, 256, 256, -1, 1)
	s := ctx.NewOp()
	s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(a.Clone()))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	rep := ctx.Energy()
	if rep.TotalJoules() <= 0 || rep.ActiveJoules <= 0 {
		t.Fatalf("energy report %+v", rep)
	}
	if rep.EDP() <= 0 {
		t.Fatal("EDP must be positive")
	}
}

func TestContextReset(t *testing.T) {
	ctx := testCtx(1)
	a := tensor.New(64, 64)
	s := ctx.NewOp()
	s.ReLU(ctx.CreateMatrixBuffer(a))
	if ctx.Elapsed() == 0 {
		t.Fatal("work should advance the clock")
	}
	ctx.Reset()
	if ctx.Elapsed() != 0 {
		t.Fatal("reset must rewind virtual time")
	}
}

// TestDeviceCount: a negative device count panics; zero means one, and
// Config reports the normalized count.
func TestDeviceCount(t *testing.T) {
	ctx := NewContext(Config{})
	if got := ctx.Config().Devices; got != 1 || len(ctx.Pool.Devices) != 1 {
		t.Fatalf("Devices 0: Config reports %d, pool holds %d; want 1", got, len(ctx.Pool.Devices))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a negative device count")
		}
	}()
	NewContext(Config{Devices: -1})
}

// TestZeroDevicePanics: a negative device count is a programming
// error, not a request for the default; NewContext panics and names
// the count.
func TestZeroDevicePanics(t *testing.T) {
	for _, n := range []int{-1, -8} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprint(n)) {
					t.Errorf("Devices %d: panic %q, want one naming the count", n, msg)
				}
			}()
			NewContext(Config{Devices: n})
		}()
	}
}

func TestMatMulPreciseBeatsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := tensor.RandUniform(rng, 160, 160, -3, 3)
	b := tensor.RandUniform(rng, 160, 160, -3, 3)
	ref := refMatMul(a, b)

	ctx1 := testCtx(1)
	s1 := ctx1.NewOp()
	plain := s1.Gemm(ctx1.CreateMatrixBuffer(a), ctx1.CreateMatrixBuffer(b))
	ctx2 := testCtx(1)
	s2 := ctx2.NewOp()
	precise := s2.GemmPrecise(ctx2.CreateMatrixBuffer(a), ctx2.CreateMatrixBuffer(b))
	if s1.Err() != nil || s2.Err() != nil {
		t.Fatal(s1.Err(), s2.Err())
	}
	ePlain := tensor.RMSE(ref, plain)
	ePrecise := tensor.RMSE(ref, precise)
	if ePrecise > ePlain/20 {
		t.Fatalf("dual-portion GEMM should cut error by >20x: plain %v, precise %v", ePlain, ePrecise)
	}
	// The precision costs roughly three device passes.
	ratio := ctx2.Elapsed().Seconds() / ctx1.Elapsed().Seconds()
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("precise/plain time ratio %v outside the expected ~3x", ratio)
	}
}

// TestPreciseOpsMatchFloatPortions pins the dual-portion operators to
// the composition they replace: buffers over quant.SplitPortions'
// float32 portions, three plain operators, and the host charges for
// the split and the combination. Results and virtual makespans must
// agree exactly, on a compact operand and on a strided view.
func TestPreciseOpsMatchFloatPortions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	parent := tensor.RandUniform(rng, 300, 200, -3, 3)
	w := tensor.RandUniform(rng, 150, 70, -2, 2)
	x := make([]float32, 150)
	for i := range x {
		x[i] = rng.Float32()*4 - 1
	}
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	split := func(ctx *Context, m *tensor.Matrix) (hi, lo *Buffer) {
		h, l, _ := quant.SplitPortions(m)
		ctx.ChargeHostWork(ctx.params.QuantTime(int64(m.Elems())))
		return ctx.CreateMatrixBuffer(h), ctx.CreateMatrixBuffer(l)
	}
	for name, a := range map[string]*tensor.Matrix{
		"compact": parent.View(0, 0, 290, 150).Clone(),
		"view":    parent.View(7, 11, 290, 150),
	} {
		ctx := testCtx(2)
		s := ctx.NewOp()
		got := s.MatVecPrecise(ctx.CreateMatrixBuffer(a), x)
		ref := testCtx(2)
		rs := ref.NewOp()
		ah, al := split(ref, a)
		xh, xl, _ := quant.SplitPortions(tensor.FromSlice(1, len(x), x))
		hh, hl, lh := rs.MatVec(ah, xh.Data), rs.MatVec(ah, xl.Data), rs.MatVec(al, xh.Data)
		want := make([]float32, len(hh))
		for i := range want {
			want[i] = hh[i] + hl[i] + lh[i]
		}
		ref.ChargeHostWork(ref.params.AggTime(int64(a.Rows)))
		if s.Err() != nil || rs.Err() != nil {
			t.Fatal(s.Err(), rs.Err())
		}
		if !same(got, want) || ctx.Elapsed() != ref.Elapsed() {
			t.Errorf("%s MatVecPrecise: results equal %v, makespan %v want %v", name, same(got, want), ctx.Elapsed(), ref.Elapsed())
		}

		ctx, ref = testCtx(2), testCtx(2)
		s, rs = ctx.NewOp(), ref.NewOp()
		gotM := s.GemmPrecise(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(w))
		ah, al = split(ref, a)
		wh, wl := split(ref, w)
		mh, ml, lm := rs.Gemm(ah, wh), rs.Gemm(ah, wl), rs.Gemm(al, wh)
		wantM := tensor.New(a.Rows, w.Cols)
		for i := range wantM.Data {
			wantM.Data[i] = mh.Data[i] + ml.Data[i] + lm.Data[i]
		}
		rs.advance(ref.chargeHost(rs.now, ref.params.AggTime(2*int64(wantM.Elems()))))
		if s.Err() != nil || rs.Err() != nil {
			t.Fatal(s.Err(), rs.Err())
		}
		if !same(gotM.Data, wantM.Data) || ctx.Elapsed() != ref.Elapsed() {
			t.Errorf("%s GemmPrecise: results equal %v, makespan %v want %v", name, same(gotM.Data, wantM.Data), ctx.Elapsed(), ref.Elapsed())
		}
	}
}

// TestMatVecPreciseKeepsSplit: a second call on the same buffer reuses
// the split (no second split pass) and finds both portions resident.
func TestMatVecPreciseKeepsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ctx := testCtx(1)
	b := ctx.CreateMatrixBuffer(tensor.RandUniform(rng, 256, 64, -1, 1))
	x := make([]float32, 64)
	for i := range x {
		x[i] = rng.Float32()
	}
	s := ctx.NewOp()
	first := s.MatVecPrecise(b, x)
	hits := ctx.Stats().ResidencyHits
	t0 := ctx.Elapsed()
	second := s.MatVecPrecise(b, x)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("same inputs must give the same product")
		}
	}
	if ctx.Stats().ResidencyHits <= hits {
		t.Error("second call re-uploaded the portions")
	}
	if again := ctx.Elapsed() - t0; again >= t0 {
		t.Errorf("second call took %v of virtual time, first %v: the split should not repeat", again, t0)
	}
}

// TestMatVecPreciseSharedBuffer: tasks racing to split one buffer get
// one split and the product a lone stream computes.
func TestMatVecPreciseSharedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := tensor.RandUniform(rng, 200, 40, -2, 2)
	x := make([]float32, 40)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	ctx := testCtx(2)
	want := ctx.NewOp().MatVecPrecise(ctx.CreateMatrixBuffer(m), x)
	b := ctx.CreateMatrixBuffer(m)
	got := make([][]float32, 8)
	for i := range got {
		ctx.Enqueue(func(s *Stream) { got[i] = s.MatVecPrecise(b, x) })
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		for j := range want {
			if g[j] != want[j] {
				t.Fatalf("task %d: element %d = %v, want %v", i, j, g[j], want[j])
			}
		}
	}
}

// TestMatMulPreciseSharedBuffer: tasks racing on one buffer's split,
// half with it as the left operand and half as the right, each beside a
// fresh partner whose codes go back as its task ends, get the products a
// lone stream computes.
func TestMatMulPreciseSharedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := tensor.RandUniform(rng, 96, 80, -2, 2)
	w := tensor.RandUniform(rng, 80, 96, -1, 1)
	ctx := testCtx(2)
	left := ctx.NewOp().GemmPrecise(ctx.CreateMatrixBuffer(m), ctx.CreateMatrixBuffer(w))
	right := ctx.NewOp().GemmPrecise(ctx.CreateMatrixBuffer(w), ctx.CreateMatrixBuffer(m))
	b := ctx.CreateMatrixBuffer(m)
	got := make([]*tensor.Matrix, 8)
	for i := range got {
		ctx.Enqueue(func(s *Stream) {
			if i%2 == 0 {
				got[i] = s.GemmPrecise(b, ctx.CreateMatrixBuffer(w))
			} else {
				got[i] = s.GemmPrecise(ctx.CreateMatrixBuffer(w), b)
			}
		})
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		want := left
		if i%2 == 1 {
			want = right
		}
		for j := range want.Data {
			if g.Data[j] != want.Data[j] {
				t.Fatalf("task %d: element %d = %v, want %v", i, j, g.Data[j], want.Data[j])
			}
		}
	}
}

func TestMatMulPreciseTimingOnly(t *testing.T) {
	ctx := NewContext(Config{TimingOnly: true})
	s := ctx.NewOp()
	out := s.GemmPrecise(ctx.CreateMatrixBuffer(tensor.ShapeOnly(256, 256)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(256, 256)))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if out.Rows != 256 || out.Cols != 256 {
		t.Fatal("shape lost")
	}
	if ctx.Elapsed() <= 0 {
		t.Fatal("no time charged")
	}
}

func TestConv2DStridedGrouping(t *testing.T) {
	// Figure 5: a 3x3 kernel with stride (3,3) reduces each
	// non-overlapping group of 9 numbers to one value.
	ctx := testCtx(1)
	a := tensor.New(6, 9)
	for i := range a.Data {
		a.Data[i] = 1
	}
	k := tensor.New(3, 3)
	k.Fill(1)
	s := ctx.NewOp()
	out := s.Conv2DStrided(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(k), 3, 3)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if out.Rows != 2 || out.Cols != 3 {
		t.Fatalf("condensed shape %dx%d want 2x3", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if math.Abs(float64(v)-9) > 0.2 {
			t.Fatalf("group sum %v want 9", v)
		}
	}
}

func TestConv2DStridedMatchesDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := tensor.RandUniform(rng, 300, 40, 0, 4)
	k := tensor.FromSlice(2, 2, []float32{0.5, 0.25, 0.25, 0.5})
	ctx := testCtx(1)
	s := ctx.NewOp()
	got := s.Conv2DStrided(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(k), 2, 2)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// Reference: exact float strided conv.
	if got.Rows != 150 || got.Cols != 20 {
		t.Fatalf("shape %dx%d", got.Rows, got.Cols)
	}
	ref := tensor.New(150, 20)
	for i := 0; i < 150; i++ {
		for j := 0; j < 20; j++ {
			var acc float64
			for p := 0; p < 2 && 2*i+p < a.Rows; p++ {
				for q := 0; q < 2 && 2*j+q < a.Cols; q++ {
					acc += float64(a.At(2*i+p, 2*j+q)) * float64(k.At(p, q))
				}
			}
			ref.Set(i, j, float32(acc))
		}
	}
	if e := tensor.RMSE(ref, got); e > 0.03 {
		t.Fatalf("strided conv RMSE %v", e)
	}
}

func TestConv2DStridedTimingOnly(t *testing.T) {
	ctx := NewContext(Config{TimingOnly: true})
	s := ctx.NewOp()
	out := s.Conv2DStrided(ctx.CreateMatrixBuffer(tensor.ShapeOnly(1024, 1024)),
		ctx.CreateMatrixBuffer(tensor.ShapeOnly(4, 4)), 4, 4)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if out.Rows != 256 || out.Cols != 256 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
}

// TestAffinityTableDropsFinishedTasks is the leak regression for the
// scheduler's placement memory: a finished task's affinity entries can
// never match again (task IDs are not reused), so retiring a task, or
// submitting a graph, hands its table back, and 10 000 sequential
// one-op tasks on one context — a daemon's life — reuse one recycled
// table instead of keeping 10 000. Dropping dead entries cannot move a
// placement: the virtual makespan and the hit/fallback counts are
// pinned to what the never-pruned table produced for this workload.
func TestAffinityTableDropsFinishedTasks(t *testing.T) {
	ctx := NewContext(Config{Devices: 2, TimingOnly: true})
	defer ctx.Close()
	const tasks = 10000
	live := 0 // finished tasks and graphs still holding a table
	held := func(p *placements) {
		ctx.mu.Lock()
		if p.tab != nil {
			live++
		}
		ctx.mu.Unlock()
	}
	for i := 0; i < tasks; i++ {
		// One GemmFC: four instructions on one primary operand — one
		// FCFS placement, three affinity hits.
		var s *Stream
		task := ctx.Enqueue(func(st *Stream) {
			s = st
			st.GemmFC(ctx.CreateMatrixBuffer(tensor.ShapeOnly(128, 128)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(128, 4)))
		})
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
		held(s.places)
		if i == tasks/2 {
			// Graphs end their task at Submit.
			g := ctx.NewGraph()
			g.Add(ctx.CreateMatrixBuffer(tensor.ShapeOnly(256, 256)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(256, 256)))
			if err := g.Submit(); err != nil {
				t.Fatal(err)
			}
			held(&g.places)
		}
	}
	if live != 0 {
		t.Errorf("%d finished tasks still hold an affinity table, want 0", live)
	}
	// Sequential tasks reuse one recycled table rather than building a
	// map each.
	ctx.mu.Lock()
	free := len(ctx.freeTabs)
	ctx.mu.Unlock()
	if free != 1 {
		t.Errorf("%d recycled affinity tables after sequential tasks, want 1", free)
	}
	// A long stream's large table is dropped, not kept on the free list.
	big := make(map[affinityKey]int)
	for i := 0; i <= maxRecycledKeys; i++ {
		big[affinityKey{input: uint64(i)}] = 0
	}
	ctx.dropPlacements(&placements{tab: big})
	if len(ctx.freeTabs) != 1 {
		t.Errorf("a %d-key table was recycled", len(big))
	}
	// Taken at the parent of this test, where the table was never pruned.
	const wantMakespan, wantHits, wantFCFS = 580445267, 30000, 10004
	st := ctx.Stats()
	if ctx.Elapsed() != wantMakespan || st.AffinityHits != wantHits || st.FCFSFallbacks != wantFCFS {
		t.Errorf("makespan %d, hits %d, fcfs %d; want %d, %d, %d", ctx.Elapsed(), st.AffinityHits, st.FCFSFallbacks,
			wantMakespan, wantHits, wantFCFS)
	}
}

// TestResetForgetsPlacements: Reset forgets every placement, also the
// ones a live stream's table holds, so the stream's next instruction on
// the same operand is placed first-come-first-serve again.
func TestResetForgetsPlacements(t *testing.T) {
	ctx := NewContext(Config{Devices: 2, TimingOnly: true})
	defer ctx.Close()
	a := ctx.CreateMatrixBuffer(tensor.ShapeOnly(64, 64))
	s := ctx.NewOp()
	s.ReLU(a)
	s.ReLU(a)
	before := ctx.Stats()
	if before.AffinityHits != 1 || before.FCFSFallbacks != 1 {
		t.Fatalf("hits %d, fcfs %d before Reset; want 1, 1", before.AffinityHits, before.FCFSFallbacks)
	}
	ctx.Reset()
	s.ReLU(a)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	after := ctx.Stats()
	if after.AffinityHits != 1 || after.FCFSFallbacks != 2 {
		t.Errorf("hits %d, fcfs %d after Reset; want 1, 2", after.AffinityHits, after.FCFSFallbacks)
	}
}

// TestNewOpStreamsLeaveNoTable is the leak regression for bare streams:
// a NewOp stream has no retire event, so while the context kept one
// affinity table per task ID, every stream that placed an instruction
// left its table behind for the context's whole life (10 000 one-op
// streams kept ~2.9 MB). The stream owns its table now, so once the
// streams are garbage the heap is back where it started.
func TestNewOpStreamsLeaveNoTable(t *testing.T) {
	ctx := NewContext(Config{Devices: 2, TimingOnly: true})
	defer ctx.Close()
	a, b := ctx.CreateMatrixBuffer(tensor.ShapeOnly(128, 128)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(128, 128))
	run := func(n int) {
		for i := 0; i < n; i++ {
			s := ctx.NewOp()
			s.Gemm(a, b)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second collection empties the sync.Pool victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	run(100) // warm the operand caches and pools
	before := heap()
	const streams = 10000
	run(streams)
	if grew := heap() - before; grew > streams*32 {
		t.Errorf("heap grew %d bytes over %d finished streams (%d per stream), want at most 32 per stream",
			grew, streams, grew/streams)
	}
}
