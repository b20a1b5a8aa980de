package bench

import (
	"fmt"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/isa"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// sensitivity backs the reproduction's robustness claim: the
// qualitative results (GPTPU beats the single-core CPU on the
// GEMM-class workloads; conv2D-GEMM dominates the FullyConnected
// algorithm) must survive ±2x perturbations of the estimated — i.e.
// not paper-published — calibration constants. Each row perturbs one
// constant in both directions and reports the GEMM speedup at the
// probe size; a sign flip (crossing 1x) would mark the conclusion as
// calibration-fragile.
func sensitivity(o Opts) *Report {
	n := 1024
	if o.Full {
		n = 4096
	}
	rep := &Report{
		ID:     "sensitivity",
		Title:  fmt.Sprintf("calibration sensitivity: %dx%d GEMM speedup under +/-2x perturbations", n, n),
		Header: []string{"constant", "x0.5", "x1 (calibrated)", "x2", "conv2D>FC at x0.5..x2"},
	}

	type knob struct {
		name  string
		apply func(p *timing.Params, f float64)
	}
	knobs := []knob{
		{"CPU GEMM rate (estimate)", func(p *timing.Params, f float64) { p.CPU.GemmFlops *= f }},
		{"conv2D sustained rate (estimate)", func(p *timing.Params, f float64) {
			p.Op[isa.Conv2D].MACRate *= f
			p.Derive()
		}},
		{"PCIe exchange rate (paper)", func(p *timing.Params, f float64) { p.DataExchangeSecPerMB /= f }},
		{"host transform rate (estimate)", func(p *timing.Params, f float64) {
			p.CPU.QuantRate *= f
			p.CPU.AggRate *= f
		}},
	}

	run := func(p *timing.Params, fc bool) float64 {
		cpu := blas.NewCPU(p, 1)
		cpu.ChargeGemm(0, int64(n), int64(n), int64(n), 1)
		base := cpu.Elapsed().Seconds()
		ctx := o.open(gptpu.Config{TimingOnly: true, Params: p})
		op := ctx.NewOp()
		a := ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n))
		b := ctx.CreateMatrixBuffer(tensor.ShapeOnly(n, n))
		if fc {
			op.GemmFC(a, b)
		} else {
			op.Gemm(a, b)
		}
		return base / ctx.Elapsed().Seconds()
	}

	// Scaling a constant by 1 leaves the calibrated set unchanged, so
	// the x1 pair is computed once for every knob.
	calConv, calFC := run(timing.Default(), false), run(timing.Default(), true)
	for _, k := range knobs {
		perturbed := func(f float64) (conv float64, convBeatsFC bool) {
			p := timing.Default()
			k.apply(p, f)
			conv = run(p, false)
			return conv, run(p, true) < conv
		}
		half, halfOK := perturbed(0.5)
		double, doubleOK := perturbed(2)
		stable := "NO"
		if calFC < calConv && halfOK && doubleOK {
			stable = "yes"
		}
		rep.addRow(k.name, f2x(half), f2x(calConv), f2x(double), label(stable))
	}
	rep.addNote("the conv2D-vs-FC ordering must hold at every perturbation; speedup magnitudes shift, conclusions do not")
	return rep
}
