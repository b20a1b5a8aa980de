package bench

import (
	"fmt"
	"math/rand"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/tensor"
)

// ablations quantifies the design decisions DESIGN.md calls out, each
// against the same workload with only the one mechanism toggled:
//
//  1. locality-aware IQ scheduling (section 6.1) vs pure FCFS;
//  2. the Tensorizer's model encoder vs the Python TFLite compiler
//     path (section 6.2.3);
//  3. CPU-side aggregation of matrix-wise operators vs the on-device
//     iterative alternative (section 6.2.1);
//  4. exactness-preserving calibration vs what the raw range rule
//     would produce (accuracy column).
func ablations(o Opts) *Report {
	rep := &Report{
		ID:     "ablations",
		Title:  "design-decision ablations (virtual time / accuracy impact)",
		Header: []string{"mechanism", "with", "without", "impact"},
	}
	n := 1024
	iters := 8
	if o.Full {
		n, iters = 4096, 20
	}

	// 1. Locality scheduling: iterative MatVec on 4 devices, where the
	// rule keeps weight tiles resident. The workload interleaves two
	// matrices so FCFS placement drifts.
	runLoc := func(disable bool) float64 {
		ctx := o.open(gptpu.Config{Devices: 4, TimingOnly: true, DisableLocality: disable})
		a := ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n))
		b := ctx.CreateMatrixBuffer(tensor.ShapeOnly(n-128, n-128))
		op := ctx.NewOp()
		for i := 0; i < iters; i++ {
			op.MatVec(a, make([]float32, n))
			op.MatVec(b, make([]float32, n-128))
		}
		return ctx.Elapsed().Seconds()
	}
	with, without := runLoc(false), runLoc(true)
	rep.addRow("locality scheduling (6.1)", secs(with), secs(without), f2x(without/with))

	// 2. Compiler path on a single GEMM.
	runCompile := func(slow bool) float64 {
		ctx := o.open(gptpu.Config{TimingOnly: true, UseTFLiteCompiler: slow})
		op := ctx.NewOp()
		op.Gemm(ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n)), ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n)))
		return ctx.Elapsed().Seconds()
	}
	fast, slow := runCompile(false), runCompile(true)
	rep.addRow("Tensorizer encoder (6.2.3)", secs(fast), secs(slow), f2x(slow/fast))

	// 3. Reduction strategy on a matrix-wise mean.
	runReduce := func(onDevice bool) float64 {
		ctx := o.open(gptpu.Config{TimingOnly: true, OnDeviceReduce: onDevice})
		op := ctx.NewOp()
		op.Mean(ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n)))
		return ctx.Elapsed().Seconds()
	}
	cpuAgg, devAgg := runReduce(false), runReduce(true)
	rep.addRow("CPU-side aggregation (6.2.1)", secs(cpuAgg), secs(devAgg), f2x(devAgg/cpuAgg))

	// 4. Exactness-preserving calibration, measured as achieved RMSE on
	// an integer dataset (the mechanism behind Table 5's 0.00 rows).
	rng := rand.New(rand.NewSource(41))
	sz := 192
	a := tensor.RandPositiveInts(rng, sz, sz, 64)
	b := tensor.RandPositiveInts(rng, sz, sz, 64)
	ref := blas.NaiveGemm(a, b)
	ctx := o.open(gptpu.Config{})
	op := ctx.NewOp()
	exact := op.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
	// Simulate the naive rule by perturbing the data off the integer
	// grid so the range rule engages.
	aN, bN := a.Clone(), b.Clone()
	aN.Data[0] += 0.25
	bN.Data[0] += 0.25
	ctx2 := o.open(gptpu.Config{})
	op2 := ctx2.NewOp()
	ranged := op2.Gemm(ctx2.CreateMatrixBuffer(aN), ctx2.CreateMatrixBuffer(bN))
	if op.Err() != nil || op2.Err() != nil {
		panic(fmt.Sprint(op.Err(), op2.Err()))
	}
	rep.addRow("exactness calibration (quant)",
		num(tensor.RMSE(ref, exact), "1", "RMSE %.4f"), num(tensor.RMSE(ref, ranged), "1", "RMSE %.4f"),
		label("integer datasets compute exactly"))

	rep.addNote("each row toggles exactly one runtime mechanism on an otherwise identical workload")
	return rep
}

// precision quantifies the dual-portion high-precision GEMM (the
// section 10 capability surfaced as Op.GemmPrecise): accuracy against
// the float reference and the virtual-time cost, side by side with
// plain tpuGemm and the FullyConnected algorithm.
func precision(o Opts) *Report {
	n := 256
	if o.Full {
		n = 512
	}
	rng := rand.New(rand.NewSource(42))
	a := tensor.RandUniform(rng, n, n, -5, 5)
	b := tensor.RandUniform(rng, n, n, -5, 5)
	ref := blas.Gemm(a, b)

	rep := &Report{
		ID:     "precision",
		Title:  fmt.Sprintf("accuracy/latency trade of the GEMM variants (%dx%d)", n, n),
		Header: []string{"variant", "RMSE", "virtual time", "vs tpuGemm"},
	}
	type variant struct {
		name string
		run  func(ctx *gptpu.Context, op *gptpu.Op, ba, bb *gptpu.Buffer) *tensor.Matrix
	}
	var base float64
	for _, v := range []variant{
		{"tpuGemm (conv2D)", func(ctx *gptpu.Context, op *gptpu.Op, ba, bb *gptpu.Buffer) *tensor.Matrix {
			return op.Gemm(ba, bb)
		}},
		{"GemmPrecise (dual-portion)", func(ctx *gptpu.Context, op *gptpu.Op, ba, bb *gptpu.Buffer) *tensor.Matrix {
			return op.GemmPrecise(ba, bb)
		}},
		{"FullyConnected GEMM", func(ctx *gptpu.Context, op *gptpu.Op, ba, bb *gptpu.Buffer) *tensor.Matrix {
			return op.GemmFC(ba, bb)
		}},
	} {
		ctx := o.open(gptpu.Config{})
		op := ctx.NewOp()
		got := v.run(ctx, op, ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		if op.Err() != nil {
			panic(op.Err())
		}
		el := ctx.Elapsed().Seconds()
		if base == 0 {
			base = el
		}
		rep.addRow(v.name, num(tensor.RMSE(ref, got), "1", "%.5f"), secs(el), f2x(el/base))
	}
	rep.addNote("GemmPrecise realizes the paper's 'iteratively computing on different portions of raw input numbers' (section 10) as a library call")
	return rep
}
