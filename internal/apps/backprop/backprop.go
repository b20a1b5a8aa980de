// Package backprop is the pattern-recognition workload of the
// evaluation (Table 3: 1 x 8K x 8K, Rodinia [76] baseline): one
// training pass of a plain-vanilla two-layer feedforward network.
// Per section 7.2.5 the GPTPU implementation uses (1) FullyConnected
// layers with a tanh-realized sigmoid activation, (2) add for the
// actual weight updates, and (3) tpuGemm to derive the weight deltas.
// Its GEMM-heavy profile is why Backprop shows the paper's largest
// speedup (4.08x): "not surprising given that the Edge TPU was
// originally designed for applications like Backprop".
package backprop

import (
	"math"
	"math/rand"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// LearningRate for the single update step, applied per sample (the
// effective step is LearningRate / batch).
const LearningRate = 0.05

// Config describes one training pass: Batch samples of In features
// through a Hidden-unit layer to Out outputs.
type Config struct {
	Batch, In, Hidden, Out int
	Seed                   int64
}

func (c Config) out() int {
	if c.Out <= 0 {
		return 16
	}
	return c.Out
}

// Workload bundles the generated tensors.
type Workload struct {
	X, W1, W2, Target *tensor.Matrix
}

// Generate builds inputs, weights and targets.
func (c Config) Generate() *Workload {
	rng := rand.New(rand.NewSource(c.Seed + 6))
	return &Workload{
		X:      tensor.RandUniform(rng, c.Batch, c.In, -1, 1),
		W1:     tensor.RandUniform(rng, c.In, c.Hidden, -0.1, 0.1),
		W2:     tensor.RandUniform(rng, c.Hidden, c.out(), -0.1, 0.1),
		Target: tensor.RandUniform(rng, c.Batch, c.out(), -1, 1),
	}
}

// Result carries the updated weights for accuracy comparison.
type Result struct {
	W1, W2 *tensor.Matrix
}

// sigmoid realized through tanh: sigma(x) = (tanh(x/2)+1)/2. The
// device computes the tanh; the affine shift is host-side epilogue.
func sigmoidFromTanh(th *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(th.Rows, th.Cols)
	for i, v := range th.Data {
		out.Data[i] = (v + 1) / 2
	}
	return out
}

// refForward computes the exact float forward/backward pass (the CPU
// baseline and the accuracy oracle).
func refPass(w *Workload) *Result {
	h1lin := blas.Gemm(w.X, w.W1)
	h1 := tensor.New(h1lin.Rows, h1lin.Cols)
	for i, v := range h1lin.Data {
		h1.Data[i] = float32((math.Tanh(float64(v)/2) + 1) / 2)
	}
	y := blas.Gemm(h1, w.W2)
	dY := tensor.New(y.Rows, y.Cols)
	for i := range y.Data {
		dY.Data[i] = y.Data[i] - w.Target.Data[i]
	}
	dW2 := blas.Gemm(h1.Transpose(), dY)
	dH := blas.Gemm(dY, w.W2.Transpose())
	for i, v := range h1.Data {
		dH.Data[i] *= v * (1 - v) // sigmoid derivative
	}
	dW1 := blas.Gemm(w.X.Transpose(), dH)
	lr := LearningRate / float32(w.X.Rows)
	nw1, nw2 := w.W1.Clone(), w.W2.Clone()
	for i := range nw1.Data {
		nw1.Data[i] -= lr * dW1.Data[i]
	}
	for i := range nw2.Data {
		nw2.Data[i] -= lr * dW2.Data[i]
	}
	return &Result{W1: nw1, W2: nw2}
}

// RunCPU executes the baseline training pass on threads cores.
func RunCPU(cpu *blas.CPU, threads int, cfg Config, w *Workload) (*Result, apps.Metrics) {
	var res *Result
	if w != nil {
		res = refPass(w)
	}
	// Rodinia's backprop carries hand-written GEMM loops, not a BLAS.
	b, in, h, o := int64(cfg.Batch), int64(cfg.In), int64(cfg.Hidden), int64(cfg.out())
	now := cpu.ChargeNaiveGemm(0, b, in, h, threads)  // forward 1
	now = cpu.ChargeStream(now, b*h, b*h*4, threads)  // activation
	now = cpu.ChargeNaiveGemm(now, b, h, o, threads)  // forward 2
	now = cpu.ChargeNaiveGemm(now, h, b, o, threads)  // dW2
	now = cpu.ChargeNaiveGemm(now, b, o, h, threads)  // dH
	now = cpu.ChargeNaiveGemm(now, in, b, h, threads) // dW1
	cpu.ChargeStream(now, in*h+h*o, (in*h+h*o)*4, threads)
	return res, apps.Metrics{Elapsed: cpu.Elapsed(), Energy: cpu.Energy()}
}

// RunTPU executes the GPTPU training pass as one dataflow-graph
// submission: every Gemm/Tanh/Add is a device node, every host step
// (the tanh→sigmoid shift, error deltas, learning-rate scaling) a
// HostOp node with the same charged CPU cost the per-op path pays.
// The whole pass enters the engine through a single Submit, and its
// weight results are bit-identical to RunTPUSerial.
func RunTPU(ctx *gptpu.Context, cfg Config, w *Workload) (*Result, apps.Metrics, error) {
	functional := ctx.Functional()
	if w == nil {
		w = &Workload{
			X:      tensor.New(cfg.Batch, cfg.In),
			W1:     tensor.New(cfg.In, cfg.Hidden),
			W2:     tensor.New(cfg.Hidden, cfg.out()),
			Target: tensor.New(cfg.Batch, cfg.out()),
		}
	}
	params := ctx.Params()
	agg := func(elems int64) timing.Duration { return params.AggTime(elems) }

	bx := ctx.CreateMatrixBuffer(w.X)
	bw1 := ctx.CreateMatrixBuffer(w.W1)
	bw2 := ctx.CreateMatrixBuffer(w.W2)
	// Static transposes of workload tensors are host-prepared buffers,
	// exactly as the per-op path builds them (uncharged input prep).
	bw2t := ctx.CreateMatrixBuffer(transposeOrShape(w.W2, functional))
	bxt := ctx.CreateMatrixBuffer(transposeOrShape(w.X, functional))

	g := ctx.NewGraph()

	// Forward: FullyConnected layers with the tanh-realized sigmoid.
	h1lin := g.MatMul(bx, bw1)
	h1half := g.HostOp("scaleHalf", cfg.Batch, cfg.Hidden, 0,
		func(in []*tensor.Matrix) *tensor.Matrix {
			out := in[0].Clone()
			out.Scale(0.5)
			return out
		}, h1lin)
	h1tanh := g.Tanh(h1half)
	h1 := g.HostOp("sigmoidShift", cfg.Batch, cfg.Hidden, agg(int64(cfg.Batch)*int64(cfg.Hidden)),
		func(in []*tensor.Matrix) *tensor.Matrix { return sigmoidFromTanh(in[0]) }, h1tanh)
	y := g.MatMul(h1, bw2)

	// Host: output delta (y - target).
	dY := g.HostOp("outputDelta", cfg.Batch, cfg.out(), agg(int64(cfg.Batch)*int64(cfg.out())),
		func(in []*tensor.Matrix) *tensor.Matrix {
			out := tensor.New(in[0].Rows, in[0].Cols)
			for i := range in[0].Data {
				out.Data[i] = in[0].Data[i] - w.Target.Data[i]
			}
			return out
		}, y)

	// Backward: tpuGemm derives the weight deltas.
	h1t := g.HostOp("transposeH1", cfg.Hidden, cfg.Batch, 0,
		func(in []*tensor.Matrix) *tensor.Matrix { return in[0].Transpose() }, h1)
	dW2 := g.MatMul(h1t, dY)
	dH := g.MatMul(dY, bw2t)
	dHs := g.HostOp("sigmoidGrad", cfg.Batch, cfg.Hidden, agg(int64(cfg.Batch)*int64(cfg.Hidden)),
		func(in []*tensor.Matrix) *tensor.Matrix {
			out := in[0].Clone()
			for i, v := range in[1].Data {
				out.Data[i] *= v * (1 - v) // sigmoid derivative
			}
			return out
		}, dH, h1)
	dW1 := g.MatMul(bxt, dHs)

	// Weight update: add of the (-lr)-scaled deltas.
	lr := LearningRate / float32(cfg.Batch)
	scaleLR := func(in []*tensor.Matrix) *tensor.Matrix {
		out := in[0].Clone()
		out.Scale(-lr)
		return out
	}
	upd1 := g.HostOp("scaleLR1", cfg.In, cfg.Hidden, agg(int64(cfg.In)*int64(cfg.Hidden)), scaleLR, dW1)
	upd2 := g.HostOp("scaleLR2", cfg.Hidden, cfg.out(), agg(int64(cfg.Hidden)*int64(cfg.out())), scaleLR, dW2)
	nw1 := g.Add(bw1, upd1)
	nw2 := g.Add(bw2, upd2)

	if err := g.Submit(); err != nil {
		return nil, apps.Metrics{}, err
	}
	var res *Result
	if functional {
		m1, err := nw1.Result()
		if err != nil {
			return nil, apps.Metrics{}, err
		}
		m2, err := nw2.Result()
		if err != nil {
			return nil, apps.Metrics{}, err
		}
		res = &Result{W1: m1, W2: m2}
	}
	return res, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}

// RunTPUSerial is the pre-graph per-op execution path: each operator
// round-trips its result through the host. Kept as the equivalence
// oracle for RunTPU and as the baseline the graph benchmark compares
// against.
func RunTPUSerial(ctx *gptpu.Context, cfg Config, w *Workload) (*Result, apps.Metrics, error) {
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
	lr := LearningRate / float32(cfg.Batch)
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

func transposeOrShape(m *tensor.Matrix, functional bool) *tensor.Matrix {
	if !functional {
		return tensor.New(m.Cols, m.Rows)
	}
	return m.Transpose()
}

func scaleByNegLR(m *tensor.Matrix, lr float32, functional bool) *tensor.Matrix {
	if !functional {
		return tensor.New(m.Rows, m.Cols)
	}
	out := m.Clone()
	out.Scale(-lr)
	return out
}

// RunGPU charges the GPU implementation (FP16 per section 9.4).
func RunGPU(g *gpusim.GPU, cfg Config) apps.Metrics {
	b, in, h, o := float64(cfg.Batch), float64(cfg.In), float64(cfg.Hidden), float64(cfg.out())
	bytes := int64(cfg.Batch*cfg.In+cfg.In*cfg.Hidden+cfg.Hidden*cfg.out()) * 4
	end := g.Transfer(0, bytes)
	for _, flops := range []float64{
		2 * b * in * h, b * h, 2 * b * h * o,
		2 * h * b * o, 2 * b * o * h, 2 * in * b * h,
	} {
		end = g.Kernel(end, flops, 0, gpusim.FP16)
	}
	g.Transfer(end, int64(cfg.In*cfg.Hidden+cfg.Hidden*cfg.out())*4)
	return apps.Metrics{Elapsed: g.Elapsed(), Energy: g.Energy()}
}
