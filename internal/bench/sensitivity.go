package bench

import (
	"fmt"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/isa"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Sensitivity backs the reproduction's robustness claim: the
// qualitative results (GPTPU beats the single-core CPU on the
// GEMM-class workloads; conv2D-GEMM dominates the FullyConnected
// algorithm) must survive ±2x perturbations of the estimated — i.e.
// not paper-published — calibration constants. Each row perturbs one
// constant in both directions and reports the GEMM speedup at the
// probe size; a sign flip (crossing 1x) would mark the conclusion as
// calibration-fragile.
func Sensitivity(o Opts) *Report {
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

	for _, k := range knobs {
		var vals [3]float64
		convBeatsFC := true
		for i, f := range []float64{0.5, 1, 2} {
			p := timing.Default()
			k.apply(p, f)
			vals[i] = run(p, false)
			if run(p, true) >= vals[i] {
				convBeatsFC = false
			}
		}
		stable := "yes"
		if !convBeatsFC {
			stable = "NO"
		}
		rep.AddRow(k.name, f2x(vals[0]), f2x(vals[1]), f2x(vals[2]), stable)
	}
	rep.AddNote("the conv2D-vs-FC ordering must hold at every perturbation; speedup magnitudes shift, conclusions do not")
	return rep
}
