package bench

import (
	"fmt"
	"math"
	"math/rand"

	gptpu "repro"
	"repro/internal/apps/backprop"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/gaussian"
	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot3d"
	"repro/internal/apps/lud"
	"repro/internal/apps/pagerank"
	"repro/internal/blas"
	"repro/internal/tensor"
)

// accuracyCase runs one application functionally at a value range and
// returns (MAPE, RMSE) of the GPTPU result against the exact CPU
// result. rangeMax <= 0 selects the app's default dataset.
type accuracyCase struct {
	name      string
	paperMAPE float64 // Table 4(a) default column, a fraction
	paperRMSE float64 // Table 4(b) default column, a fraction
	run       func(o Opts, rangeMax float64) (mape, rmse float64)
	// rangeFree cases ignore rangeMax: their range columns repeat the
	// default column.
	rangeFree bool
}

func vecAsMatrix(v []float32) *tensor.Matrix { return tensor.FromSlice(1, len(v), v) }

func vecErr(ref, got []float32) (float64, float64) {
	return tensor.MAPE(vecAsMatrix(ref), vecAsMatrix(got)),
		tensor.RMSE(vecAsMatrix(ref), vecAsMatrix(got))
}

func accuracyCases() []accuracyCase {
	return []accuracyCase{
		{
			// The range sweep is skipped for Backprop: un-normalized
			// inputs at 2^15+ saturate the network in both
			// implementations and the comparison degenerates (the
			// paper's per-app scaling methodology is unspecified); the
			// default column is the meaningful one.
			name: "Backprop", paperMAPE: 0.0012, paperRMSE: 0.0014, rangeFree: true,
			run: func(o Opts, _ float64) (float64, float64) {
				cfg := backprop.Config{Batch: 128, In: 96, Hidden: 64, Out: 8, Seed: 11}
				w := cfg.Generate()
				cpu := blas.NewCPU(nil, 1)
				ref, _ := backprop.RunCPU(cpu, 1, cfg, w)
				ctx := o.open(gptpu.Config{})
				got, _ := must(backprop.RunTPU(ctx, cfg, w))
				m1, r1 := tensor.MAPE(ref.W1, got.W1), tensor.RMSE(ref.W1, got.W1)
				m2, r2 := tensor.MAPE(ref.W2, got.W2), tensor.RMSE(ref.W2, got.W2)
				return (m1 + m2) / 2, (r1 + r2) / 2
			},
		},
		{
			name: "Blackscholes", paperMAPE: 0.0018, paperRMSE: 0.0033,
			run: func(o Opts, r float64) (float64, float64) {
				n := 4096
				if o.Full {
					n = 1 << 16
				}
				cfg := blackscholes.Config{N: n, Seed: 12}
				opts := cfg.Generate()
				if r > 0 {
					sc := float32(r / 200)
					for i := range opts {
						opts[i].S *= sc
						opts[i].K *= sc
					}
				}
				cpu := blas.NewCPU(nil, 1)
				ref, _ := blackscholes.RunCPU(cpu, 1, cfg, opts)
				ctx := o.open(gptpu.Config{})
				got, _ := must(blackscholes.RunTPU(ctx, cfg, opts))
				return vecErr(ref, got)
			},
		},
		{
			name: "Gaussian", paperMAPE: 0, paperRMSE: 0,
			run: func(o Opts, r float64) (float64, float64) {
				n := 128
				if o.Full {
					n = 256
				}
				cfg := gaussian.Config{N: n, Seed: 13}
				a := cfg.Generate()
				if r > 0 {
					a.Scale(float32(r))
				}
				cpu := blas.NewCPU(nil, 1)
				ref, _ := gaussian.RunCPU(cpu, 1, cfg, a.Clone())
				ctx := o.open(gptpu.Config{})
				got, _ := must(gaussian.RunTPU(ctx, cfg, a))
				return tensor.MAPE(ref, got), tensor.RMSE(ref, got)
			},
		},
		{
			name: "GEMM", paperMAPE: 0.0089, paperRMSE: 0.0098,
			run: func(o Opts, r float64) (float64, float64) {
				n := 192
				if o.Full {
					n = 512
				}
				rng := rand.New(rand.NewSource(14))
				span := float32(8)
				if r > 0 {
					span = float32(r)
				}
				a := tensor.RandUniform(rng, n, n, -span, span)
				b := tensor.RandUniform(rng, n, n, -span, span)
				ref := blas.Gemm(a, b)
				ctx := o.open(gptpu.Config{})
				got, _ := must(gemm.RunTPU(ctx, gemm.Conv2D, a, b))
				return tensor.MAPE(ref, got), tensor.RMSE(ref, got)
			},
		},
		{
			name: "HotSpot", paperMAPE: 0.0050, paperRMSE: 0.0064,
			run: func(o Opts, r float64) (float64, float64) {
				cfg := hotspot3d.Config{N: 140, Layers: 3, Iters: 4, Seed: 15}
				temp, power := cfg.Generate()
				if r > 0 {
					sc := float32(r / 80)
					for z := range temp {
						temp[z].Scale(sc)
						power[z].Scale(sc)
					}
				}
				cpu := blas.NewCPU(nil, 1)
				refStack, _ := hotspot3d.RunCPU(cpu, 1, cfg, cloneStack(temp), power)
				ctx := o.open(gptpu.Config{})
				gotStack, _ := must(hotspot3d.RunTPU(ctx, cfg, temp, power))
				var mape, rmse float64
				for z := range refStack {
					mape += tensor.MAPE(refStack[z], gotStack[z])
					rmse += tensor.RMSE(refStack[z], gotStack[z])
				}
				return mape / float64(len(refStack)), rmse / float64(len(refStack))
			},
		},
		{
			name: "LUD", paperMAPE: 0, paperRMSE: 0,
			run: func(o Opts, r float64) (float64, float64) {
				n := 256
				if o.Full {
					n = 512
				}
				cfg := lud.Config{N: n, Seed: 16}
				a := cfg.Generate()
				if r > 0 {
					a.Scale(float32(r))
				}
				cpu := blas.NewCPU(nil, 1)
				ref, _ := lud.RunCPU(cpu, 1, cfg, a.Clone())
				ctx := o.open(gptpu.Config{})
				got, _ := must(lud.RunTPU(ctx, cfg, a))
				return tensor.MAPE(ref, got), tensor.RMSE(ref, got)
			},
		},
		{
			// Adjacency counts are integers and ranks are scale-free.
			name: "PageRank", paperMAPE: 0.0061, paperRMSE: 0.0041, rangeFree: true,
			run: func(o Opts, _ float64) (float64, float64) {
				n := 256
				if o.Full {
					n = 1024
				}
				cfg := pagerank.Config{N: n, Iters: 12, Seed: 17}
				g := cfg.Generate()
				cpu := blas.NewCPU(nil, 1)
				ref, _ := pagerank.RunCPU(cpu, 1, cfg, g)
				ctx := o.open(gptpu.Config{})
				got, _ := must(pagerank.RunTPU(ctx, cfg, g))
				return vecErr(ref, got)
			},
		},
	}
}

// table4 reproduces the accuracy study: MAPE (a) and RMSE (b) for
// every application on its default dataset and on synthetic datasets
// with value ranges up to 2^7, 2^15 and 2^31.
func table4(o Opts) *Report {
	rep := &Report{
		ID:    "table4",
		Title: "application MAPE / RMSE vs exact CPU results, by input value range",
		Header: []string{"app", "MAPE(paper)", "MAPE(def)", "MAPE(2^7)", "MAPE(2^15)", "MAPE(2^31)",
			"RMSE(paper)", "RMSE(def)", "RMSE(2^31)"},
	}
	ranges := []float64{0, 1 << 7, 1 << 15, math.Pow(2, 31)}
	for _, c := range accuracyCases() {
		var mapes, rmses [4]float64
		for i, r := range ranges {
			if i > 0 && c.rangeFree {
				mapes[i], rmses[i] = mapes[0], rmses[0]
				continue
			}
			mapes[i], rmses[i] = c.run(o, r)
		}
		rep.addRow(c.name, pct(c.paperMAPE), pct(mapes[0]), pct(mapes[1]), pct(mapes[2]), pct(mapes[3]),
			pct(c.paperRMSE), pct(rmses[0]), pct(rmses[3]))
	}
	rows := rep.Rows
	avg := func(col string) Cell { return rep.mean(rows, col) }
	rep.addRow("Average", pct(0.0033), avg("MAPE(def)"), avg("MAPE(2^7)"), avg("MAPE(2^15)"), avg("MAPE(2^31)"),
		pct(0.0041), avg("RMSE(def)"), avg("RMSE(2^31)"))
	rep.addNote("paper: MAPE always below 1%% across applications and ranges; largest RMSE 0.98%%")
	rep.addNote("the paper's 0.00%% rows (Gaussian, LUD) reflect exactness-preserving integer calibration; float elimination accumulates sqrt(N)-growth quantization error (see EXPERIMENTS.md)")
	return rep
}

// table5 reproduces the low-precision CPU comparison: GPTPU's GEMM
// versus FBGEMM on 1024x1024 positive-integer matrices with maximum
// values from 2 to 128 — speedup plus both libraries' RMSE (FBGEMM's
// saturating 16-bit accumulation collapses past a maximum of 16).
func table5(o Opts) *Report {
	n := 256
	if o.Full {
		n = 1024
	}
	rep := &Report{
		ID:     "table5",
		Title:  fmt.Sprintf("tpuGemm vs FBGEMM on %dx%d positive integers", n, n),
		Header: []string{"max value", "speedup(paper)", "speedup(sim)", "RMSE FBGEMM(paper)", "RMSE FBGEMM(sim)", "RMSE tpuGemm(paper)", "RMSE tpuGemm(sim)"},
	}
	paperSpd := map[int]float64{2: 1.26, 4: 1.27, 8: 1.28, 16: 1.22, 32: 1.28, 64: 1.27, 128: 1.28}
	paperFB := map[int]float64{32: 0.47, 64: 0.87, 128: 0.97}
	paperTPU := map[int]float64{128: 0.01}
	rmse := func(v float64) Cell { return num(v, "1", "%.2f") }

	// Timing ratio is range-independent: measure once.
	cpu := blas.NewCPU(nil, 1)
	_, fbM := gemm.RunCPUInt8(cpu, gemm.Config{N: n}, nil, nil)
	ctxT := o.open(gptpu.Config{TimingOnly: true})
	_, tpuM := must(gemm.RunTPU(ctxT, gemm.Conv2D, shapeOnly(n), shapeOnly(n)))
	speedup := tpuM.Speedup(fbM)

	for _, max := range []int{2, 4, 8, 16, 32, 64, 128} {
		cfg := gemm.Config{N: n, IntMax: max, Seed: int64(max)}
		a, b := cfg.Generate()
		ref := blas.GemmParallel(a, b)
		fb := blas.Int8Gemm(a, b)
		ctx := o.open(gptpu.Config{})
		tpu, _ := must(gemm.RunTPU(ctx, gemm.Conv2D, a, b))
		rep.addRow(fmt.Sprintf("0-%d", max), num(paperSpd[max], "x", "%.2f"), f2x(speedup),
			rmse(paperFB[max]), rmse(tensor.RMSE(ref, fb)), rmse(paperTPU[max]), rmse(tensor.RMSE(ref, tpu)))
	}
	rep.addNote("FBGEMM-style baseline accumulates uint8xint8 products in saturating int16 over 256-deep blocks; GPTPU reads wide accumulators back for CPU aggregation")
	return rep
}

func cloneStack(s []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(s))
	for i, m := range s {
		out[i] = m.Clone()
	}
	return out
}
