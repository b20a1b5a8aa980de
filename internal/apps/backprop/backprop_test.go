package backprop

import (
	"math"
	"testing"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

func TestGenerateShapes(t *testing.T) {
	cfg := Config{Batch: 32, In: 48, Hidden: 24, Out: 8, Seed: 1}
	w := cfg.Generate()
	if w.X.Rows != 32 || w.X.Cols != 48 || w.W1.Cols != 24 || w.W2.Cols != 8 || w.Target.Cols != 8 {
		t.Fatal("bad shapes")
	}
}

func TestTrainingStepReducesLoss(t *testing.T) {
	cfg := Config{Batch: 64, In: 32, Hidden: 16, Out: 4, Seed: 2}
	w := cfg.Generate()
	res := refPass(w)

	loss := func(w1, w2 *tensor.Matrix) float64 {
		h1lin := blas.Gemm(w.X, w1)
		h1 := tensor.New(h1lin.Rows, h1lin.Cols)
		for i, v := range h1lin.Data {
			h1.Data[i] = float32((tanh64(float64(v)/2) + 1) / 2)
		}
		y := blas.Gemm(h1, w2)
		var l float64
		for i := range y.Data {
			d := float64(y.Data[i] - w.Target.Data[i])
			l += d * d
		}
		return l
	}
	before := loss(w.W1, w.W2)
	after := loss(res.W1, res.W2)
	if after >= before {
		t.Fatalf("gradient step did not reduce loss: %v -> %v", before, after)
	}
}

func tanh64(x float64) float64 {
	e2 := expApprox(2 * x)
	return (e2 - 1) / (e2 + 1)
}

func expApprox(x float64) float64 {
	// math.Exp wrapper kept separate so the test file documents the
	// sigmoid identity explicitly.
	return math.Exp(x)
}

func TestTPUWeightsMatchCPU(t *testing.T) {
	cfg := Config{Batch: 160, In: 96, Hidden: 64, Out: 8, Seed: 3}
	w := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	ref, _ := RunCPU(cpu, 1, cfg, w)
	ctx := gptpu.Open(gptpu.Config{})
	got, _, err := RunTPU(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if e := tensor.RMSE(ref.W1, got.W1); e > 0.05 {
		t.Fatalf("W1 RMSE %v", e)
	}
	if e := tensor.RMSE(ref.W2, got.W2); e > 0.05 {
		t.Fatalf("W2 RMSE %v", e)
	}
}

func TestBackpropIsGemmHeavy(t *testing.T) {
	// Section 9.1 attributes Backprop's top speedup to its GEMM-heavy
	// profile: device compute should dominate host time.
	cfg := Config{Batch: 1024, In: 1024, Hidden: 1024, Out: 16, Seed: 4}
	ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
	if _, _, err := RunTPU(ctx, cfg, nil); err != nil {
		t.Fatal(err)
	}
	var tpu, host float64
	for _, r := range ctx.TL.Resources() {
		switch {
		case len(r.Name) >= 7 && r.Name[:7] == "edgetpu":
			tpu += r.BusyTime().Seconds()
		case len(r.Name) >= 3 && r.Name[:3] == "cpu":
			host += r.BusyTime().Seconds()
		}
	}
	if tpu <= host {
		t.Fatalf("expected device-compute-heavy profile: tpu %.4fs vs host %.4fs", tpu, host)
	}
}

func TestRunGPU(t *testing.T) {
	g := gpusim.New(gpusim.RTX2080())
	m := RunGPU(g, Config{Batch: 1024, In: 1024, Hidden: 1024, Out: 16})
	if m.Elapsed <= 0 {
		t.Fatal("no GPU time charged")
	}
}

// TestGraphMatchesSerial is the migration equivalence oracle: the
// single-Submit graph pass must reproduce the per-op serial pass
// bit-for-bit, at one worker and at eight.
func TestGraphMatchesSerial(t *testing.T) {
	cfg := Config{Batch: 96, In: 64, Hidden: 48, Out: 8, Seed: 9}
	w := cfg.Generate()
	serial, _, err := runTPUSerial(gptpu.Open(gptpu.Config{}), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		graph, _, err := RunTPU(gptpu.Open(gptpu.Config{DispatchWorkers: workers}), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name     string
			got, ref *tensor.Matrix
		}{{"W1", graph.W1, serial.W1}, {"W2", graph.W2, serial.W2}} {
			if len(pair.got.Data) != len(pair.ref.Data) {
				t.Fatalf("workers=%d %s: size %d vs %d", workers, pair.name, len(pair.got.Data), len(pair.ref.Data))
			}
			for i := range pair.got.Data {
				if pair.got.Data[i] != pair.ref.Data[i] {
					t.Fatalf("workers=%d %s[%d]: graph %v vs serial %v", workers, pair.name, i, pair.got.Data[i], pair.ref.Data[i])
				}
			}
		}
	}
}

// TestGraphTimingOnly pins that the graph pass still works shape-only
// (nil functional data) and charges device time like the serial path.
func TestGraphTimingOnly(t *testing.T) {
	cfg := Config{Batch: 256, In: 256, Hidden: 256, Out: 16, Seed: 5}
	ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
	res, m, err := RunTPU(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("timing-only run must not return functional weights")
	}
	if m.Elapsed <= 0 {
		t.Fatal("no virtual time charged")
	}
}

// runTPUSerial is the pre-graph per-op execution path: each operator
// round-trips its result through the host. It is the equivalence
// oracle for RunTPU.
func runTPUSerial(ctx *gptpu.Context, cfg Config, w *Workload) (*Result, apps.Metrics, error) {
	functional := ctx.Functional()
	if w == nil {
		w = &Workload{
			X:      tensor.New(cfg.Batch, cfg.In),
			W1:     tensor.New(cfg.In, cfg.Hidden),
			W2:     tensor.New(cfg.Hidden, cfg.out()),
			Target: tensor.New(cfg.Batch, cfg.out()),
		}
	}
	op := ctx.NewOp()
	params := ctx.Params()
	hostEpilogue := func(elems int64) {
		ctx.ChargeHostWork(params.AggTime(elems))
	}

	bx := ctx.CreateMatrixBuffer(w.X)
	bw1 := ctx.CreateMatrixBuffer(w.W1)
	bw2 := ctx.CreateMatrixBuffer(w.W2)

	// Forward: FullyConnected layers with the tanh-realized sigmoid.
	h1lin := op.Gemm(bx, bw1)
	bh1lin := ctx.CreateMatrixBuffer(scaleHalf(h1lin, functional))
	h1tanh := op.Tanh(bh1lin)
	var h1 *tensor.Matrix
	if functional {
		h1 = sigmoidFromTanh(h1tanh)
	} else {
		h1 = tensor.New(cfg.Batch, cfg.Hidden)
	}
	hostEpilogue(int64(cfg.Batch) * int64(cfg.Hidden))

	bh1 := ctx.CreateMatrixBuffer(h1)
	y := op.Gemm(bh1, bw2)

	// Host: output delta (y - target).
	dY := tensor.New(cfg.Batch, cfg.out())
	if functional {
		for i := range y.Data {
			dY.Data[i] = y.Data[i] - w.Target.Data[i]
		}
	}
	hostEpilogue(int64(cfg.Batch) * int64(cfg.out()))

	// Backward: tpuGemm derives the weight deltas.
	bh1t := ctx.CreateMatrixBuffer(transposeOrShape(h1, functional))
	bdY := ctx.CreateMatrixBuffer(dY)
	dW2 := op.Gemm(bh1t, bdY)

	bw2t := ctx.CreateMatrixBuffer(transposeOrShape(w.W2, functional))
	dH := op.Gemm(bdY, bw2t)
	if functional {
		for i, v := range h1.Data {
			dH.Data[i] *= v * (1 - v)
		}
	}
	hostEpilogue(int64(cfg.Batch) * int64(cfg.Hidden))

	bxt := ctx.CreateMatrixBuffer(transposeOrShape(w.X, functional))
	bdH := ctx.CreateMatrixBuffer(dH)
	dW1 := op.Gemm(bxt, bdH)

	// Weight update: add of the (-lr)-scaled deltas (section 7.2.5's
	// "add for the actual backpropagation").
	lr := learningRate / float32(cfg.Batch)
	upd1 := scaleByNegLR(dW1, lr, functional)
	upd2 := scaleByNegLR(dW2, lr, functional)
	hostEpilogue(int64(upd1.Elems() + upd2.Elems()))
	nw1 := op.Add(bw1, ctx.CreateMatrixBuffer(upd1))
	nw2 := op.Add(bw2, ctx.CreateMatrixBuffer(upd2))
	if op.Err() != nil {
		return nil, apps.Metrics{}, op.Err()
	}
	var res *Result
	if functional {
		res = &Result{W1: nw1, W2: nw2}
	}
	return res, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}

func scaleHalf(m *tensor.Matrix, functional bool) *tensor.Matrix {
	if !functional {
		return tensor.New(m.Rows, m.Cols)
	}
	out := m.Clone()
	out.Scale(0.5)
	return out
}

func scaleByNegLR(m *tensor.Matrix, lr float32, functional bool) *tensor.Matrix {
	if !functional {
		return tensor.New(m.Rows, m.Cols)
	}
	out := m.Clone()
	out.Scale(-lr)
	return out
}
