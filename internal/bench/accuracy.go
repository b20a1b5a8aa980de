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
	paperMAPE string // Table 4(a) default column
	paperRMSE string // Table 4(b) default column
	run       func(o Opts, rangeMax float64) (mape, rmse float64)
	rangeNote string
}

func vecAsMatrix(v []float32) *tensor.Matrix { return tensor.FromSlice(1, len(v), v) }

func vecErr(ref, got []float32) (float64, float64) {
	return tensor.MAPE(vecAsMatrix(ref), vecAsMatrix(got)),
		tensor.RMSE(vecAsMatrix(ref), vecAsMatrix(got))
}

func accuracyCases() []accuracyCase {
	return []accuracyCase{
		{
			name: "Backprop", paperMAPE: "0.12%", paperRMSE: "0.14%",
			run: func(o Opts, r float64) (float64, float64) {
				cfg := backprop.Config{Batch: 128, In: 96, Hidden: 64, Out: 8, Seed: 11}
				w := cfg.Generate()
				// The range sweep is skipped for Backprop: un-normalized
				// inputs at 2^15+ saturate the network in both
				// implementations and the comparison degenerates (the
				// paper's per-app scaling methodology is unspecified);
				// the default column is the meaningful one.
				_ = r
				cpu := blas.NewCPU(nil, 1)
				ref, _ := backprop.RunCPU(cpu, 1, cfg, w)
				ctx := o.open(gptpu.Config{})
				got, _, err := backprop.RunTPU(ctx, cfg, w)
				if err != nil {
					panic(err)
				}
				m1, r1 := tensor.MAPE(ref.W1, got.W1), tensor.RMSE(ref.W1, got.W1)
				m2, r2 := tensor.MAPE(ref.W2, got.W2), tensor.RMSE(ref.W2, got.W2)
				return (m1 + m2) / 2, (r1 + r2) / 2
			},
			rangeNote: "range columns repeat the default (saturation degeneracy; see EXPERIMENTS.md)",
		},
		{
			name: "Blackscholes", paperMAPE: "0.18%", paperRMSE: "0.33%",
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
				got, _, err := blackscholes.RunTPU(ctx, cfg, opts)
				if err != nil {
					panic(err)
				}
				return vecErr(ref, got)
			},
			rangeNote: "spot/strike prices scaled into the target range",
		},
		{
			name: "Gaussian", paperMAPE: "0.00%", paperRMSE: "0.00%",
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
				got, _, err := gaussian.RunTPU(ctx, cfg, a)
				if err != nil {
					panic(err)
				}
				return tensor.MAPE(ref, got), tensor.RMSE(ref, got)
			},
			rangeNote: "system entries scaled into the target range (elimination factors are scale-invariant)",
		},
		{
			name: "GEMM", paperMAPE: "0.89%", paperRMSE: "0.98%",
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
				got, _, err := gemm.RunTPU(ctx, gemm.Conv2D, a, b)
				if err != nil {
					panic(err)
				}
				return tensor.MAPE(ref, got), tensor.RMSE(ref, got)
			},
			rangeNote: "uniform inputs over the target range",
		},
		{
			name: "HotSpot", paperMAPE: "0.50%", paperRMSE: "0.64%",
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
				gotStack, _, err := hotspot3d.RunTPU(ctx, cfg, temp, power)
				if err != nil {
					panic(err)
				}
				var mape, rmse float64
				for z := range refStack {
					mape += tensor.MAPE(refStack[z], gotStack[z])
					rmse += tensor.RMSE(refStack[z], gotStack[z])
				}
				return mape / float64(len(refStack)), rmse / float64(len(refStack))
			},
			rangeNote: "temperature/power grids scaled into the target range",
		},
		{
			name: "LUD", paperMAPE: "0.00%", paperRMSE: "0.00%",
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
				got, _, err := lud.RunTPU(ctx, cfg, a)
				if err != nil {
					panic(err)
				}
				return tensor.MAPE(ref, got), tensor.RMSE(ref, got)
			},
			rangeNote: "matrix entries scaled into the target range (factors scale-invariant)",
		},
		{
			name: "PageRank", paperMAPE: "0.61%", paperRMSE: "0.41%",
			run: func(o Opts, r float64) (float64, float64) {
				n := 256
				if o.Full {
					n = 1024
				}
				cfg := pagerank.Config{N: n, Iters: 12, Seed: 17}
				g := cfg.Generate()
				cpu := blas.NewCPU(nil, 1)
				ref, _ := pagerank.RunCPU(cpu, 1, cfg, g)
				ctx := o.open(gptpu.Config{})
				got, _, err := pagerank.RunTPU(ctx, cfg, g)
				if err != nil {
					panic(err)
				}
				return vecErr(ref, got)
			},
			rangeNote: "adjacency counts are integers; rank values are scale-free (range column repeats the default)",
		},
	}
}

// Table4 reproduces the accuracy study: MAPE (a) and RMSE (b) for
// every application on its default dataset and on synthetic datasets
// with value ranges up to 2^7, 2^15 and 2^31.
func Table4(o Opts) *Report {
	rep := &Report{
		ID:    "table4",
		Title: "application MAPE / RMSE vs exact CPU results, by input value range",
		Header: []string{"app", "MAPE(paper)", "MAPE(def)", "MAPE(2^7)", "MAPE(2^15)", "MAPE(2^31)",
			"RMSE(paper)", "RMSE(def)", "RMSE(2^31)"},
	}
	ranges := []float64{0, 1 << 7, 1 << 15, math.Pow(2, 31)}
	var avgM, avgR [4]float64
	cases := accuracyCases()
	for _, c := range cases {
		var mapes, rmses [4]float64
		for i, r := range ranges {
			m, e := c.run(o, r)
			mapes[i], rmses[i] = m, e
			avgM[i] += m
			avgR[i] += e
		}
		rep.AddRow(c.name, c.paperMAPE, pct(mapes[0]), pct(mapes[1]), pct(mapes[2]), pct(mapes[3]),
			c.paperRMSE, pct(rmses[0]), pct(rmses[3]))
	}
	n := float64(len(cases))
	rep.AddRow("Average", "0.33%", pct(avgM[0]/n), pct(avgM[1]/n), pct(avgM[2]/n), pct(avgM[3]/n),
		"0.41%", pct(avgR[0]/n), pct(avgR[3]/n))
	rep.AddNote("paper: MAPE always below 1%% across applications and ranges; largest RMSE 0.98%%")
	rep.AddNote("the paper's 0.00%% rows (Gaussian, LUD) reflect exactness-preserving integer calibration; float elimination accumulates sqrt(N)-growth quantization error (see EXPERIMENTS.md)")
	return rep
}

// Table5 reproduces the low-precision CPU comparison: GPTPU's GEMM
// versus FBGEMM on 1024x1024 positive-integer matrices with maximum
// values from 2 to 128 — speedup plus both libraries' RMSE (FBGEMM's
// saturating 16-bit accumulation collapses past a maximum of 16).
func Table5(o Opts) *Report {
	n := 256
	if o.Full {
		n = 1024
	}
	rep := &Report{
		ID:     "table5",
		Title:  fmt.Sprintf("tpuGemm vs FBGEMM on %dx%d positive integers", n, n),
		Header: []string{"max value", "speedup(paper)", "speedup(sim)", "RMSE FBGEMM(paper)", "RMSE FBGEMM(sim)", "RMSE tpuGemm(paper)", "RMSE tpuGemm(sim)"},
	}
	paperSpd := map[int]string{2: "1.26", 4: "1.27", 8: "1.28", 16: "1.22", 32: "1.28", 64: "1.27", 128: "1.28"}
	paperFB := map[int]string{2: "0.00", 4: "0.00", 8: "0.00", 16: "0.00", 32: "0.47", 64: "0.87", 128: "0.97"}
	paperTPU := map[int]string{2: "0.00", 4: "0.00", 8: "0.00", 16: "0.00", 32: "0.00", 64: "0.00", 128: "0.01"}

	// Timing ratio is range-independent: measure once.
	cpu := blas.NewCPU(nil, 1)
	_, fbM := gemm.RunCPUInt8(cpu, gemm.Config{N: n}, nil, nil)
	ctxT := o.open(gptpu.Config{TimingOnly: true})
	_, tpuM, err := gemm.RunTPU(ctxT, gemm.Conv2D, shapeOnly(n), shapeOnly(n))
	if err != nil {
		panic(err)
	}
	speedup := tpuM.Speedup(fbM)

	for _, max := range []int{2, 4, 8, 16, 32, 64, 128} {
		cfg := gemm.Config{N: n, IntMax: max, Seed: int64(max)}
		a, b := cfg.Generate()
		ref := blas.GemmParallel(a, b)
		fb := blas.Int8Gemm(a, b)
		ctx := o.open(gptpu.Config{})
		tpu, _, err := gemm.RunTPU(ctx, gemm.Conv2D, a, b)
		if err != nil {
			panic(err)
		}
		rep.AddRow(fmt.Sprintf("0-%d", max), paperSpd[max], f2x(speedup),
			paperFB[max], fmt.Sprintf("%.2f", tensor.RMSE(ref, fb)),
			paperTPU[max], fmt.Sprintf("%.2f", tensor.RMSE(ref, tpu)))
	}
	rep.AddNote("FBGEMM-style baseline accumulates uint8xint8 products in saturating int16 over 256-deep blocks; GPTPU reads wide accumulators back for CPU aggregation")
	return rep
}

func cloneStack(s []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(s))
	for i, m := range s {
		out[i] = m.Clone()
	}
	return out
}
