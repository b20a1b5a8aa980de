package bench

import (
	"fmt"
	"math"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/apps/gemm"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/timing"
)

// figure6 reproduces the GEMM microbenchmark: GPTPU GEMM with
// FullyConnected and with conv2D, relative to the single-core
// OpenBLAS CPU baseline, at 1K/2K/4K (quick mode: 256/512/1K).
func figure6(o Opts) *Report {
	sizes := []int{256, 512, 1024}
	paper := map[int]float64{1024: 1.48, 2048: 1.90, 4096: 2.06}
	if o.Full {
		sizes = []int{1024, 2048, 4096}
	}
	rep := &Report{
		ID:     "fig6",
		Title:  "GEMM speedup over OpenBLAS CPU: FullyConnected vs conv2D implementations",
		Header: []string{"size", "conv2D(paper)", "conv2D(sim)", "FC(sim)", "conv2D/FC"},
	}
	for _, n := range sizes {
		cfg := gemm.Config{N: n}
		cpu := blas.NewCPU(nil, 1)
		_, cpuM := gemm.RunCPU(cpu, 1, cfg, nil, nil)

		ctxC := o.open(gptpu.Config{TimingOnly: true})
		_, convM := must(gemm.RunTPU(ctxC, gemm.Conv2D, shapeOnly(n), shapeOnly(n)))
		ctxF := o.open(gptpu.Config{TimingOnly: true})
		_, fcM := must(gemm.RunTPU(ctxF, gemm.FullyConnected, shapeOnly(n), shapeOnly(n)))
		pp := label("-")
		if v, ok := paper[n]; ok {
			pp = num(v, "x", "%.2f")
		}
		rep.addRow(fmt.Sprintf("%dx%d", n, n), pp,
			f2x(convM.Speedup(cpuM)), f2x(fcM.Speedup(cpuM)),
			f2x(fcM.Elapsed.Seconds()/convM.Elapsed.Seconds()))
	}
	rep.addNote("paper: conv2D-based GEMM outperforms the FullyConnected algorithm by 43x at 4Kx4K (section 7.1.3)")
	return rep
}

// figure7 reproduces the single-TPU per-application comparison:
// speedup, relative energy, and relative EDP versus one CPU core.
func figure7(o Opts) *Report {
	rep := &Report{
		ID:     "fig7",
		Title:  "per-application speedup / energy / EDP: 1 Edge TPU vs 1 CPU core",
		Header: []string{"app", "speedup(paper)", "speedup(sim)", "energy(sim)", "EDP(sim)"},
	}
	var noBP [][]Cell
	for _, w := range workloads(o) {
		cpuM := w.cpu(1)
		tpuM := w.tpu(1)
		rep.addRow(w.name, label(w.paperSpeedup), f2x(tpuM.Speedup(cpuM)),
			pct(tpuM.EnergyRatio(cpuM)), pct(tpuM.EDPRatio(cpuM)))
		if w.name != "Backprop" {
			noBP = append(noBP, rep.Rows[len(rep.Rows)-1])
		}
	}
	rows := rep.Rows
	rep.addRow("Average", label("2.46"), rep.mean(rows, "speedup(sim)"),
		rep.mean(rows, "energy(sim)"), rep.mean(rows, "EDP(sim)"))
	rep.addRow("Avg. w/o Backprop", label("2.19"), rep.mean(noBP, "speedup(sim)"), label("-"), label("-"))
	rep.addNote("paper: average 2.46x speedup, 40%% energy saving, 67%% EDP reduction; HotSpot3D lowest at 1.14x")
	if !o.Full {
		rep.addNote("quick mode: inputs scaled down from Table 3; run with -full for paper-scale sizes")
	}
	return rep
}

// figure8 reproduces the multi-TPU scaling study: (a) speedup of
// 2/4/8 Edge TPUs and of the 8-core OpenMP CPU baseline over one CPU
// core; (b) per-app scaling relative to a single Edge TPU.
func figure8(o Opts) *Report {
	rep := &Report{
		ID:    "fig8",
		Title: "multi-TPU scaling vs 1 CPU core (a) and vs 1 Edge TPU (b)",
		Header: []string{"app", "2 TPUs", "4 TPUs", "8 TPUs", "8 CPUs",
			"scale@8(sim)", "note"},
	}
	for _, w := range workloads(o) {
		cpu1 := w.cpu(1)
		tpu1 := w.tpu(1)
		var cells []Cell
		var tpu8 apps.Metrics
		for _, d := range []int{2, 4, 8} {
			tpu8 = w.tpu(d)
			cells = append(cells, f2x(tpu8.Speedup(cpu1)))
		}
		note := ""
		if w.name == "LUD" {
			note = "paper: worst scaling (recursive partitioning)"
		}
		rep.addRow(w.name, append(cells,
			f2x(w.cpu(8).Speedup(cpu1)), f2x(tpu8.Speedup(tpu1)), label(note))...)
	}
	rows := rep.Rows
	rep.addRow("Average", label("-"), label("-"), rep.mean(rows, "8 TPUs"), rep.mean(rows, "8 CPUs"),
		label("-"), label("paper: 13.86x @8 TPUs, 2.70x @8 CPUs"))
	return rep
}

// figure9 reproduces the GPU comparison: RTX 2080, Jetson Nano, 1x
// and 8x Edge TPUs versus one CPU core, for performance and energy.
func figure9(o Opts) *Report {
	rep := &Report{
		ID:    "fig9",
		Title: "GPU comparison: speedup over 1 CPU core and relative energy",
		Header: []string{"app", "1xTPU", "RTX2080", "Jetson", "8xTPU",
			"E(TPU)", "E(RTX)", "E(Jetson)", "E(8xTPU)"},
	}
	for _, w := range workloads(o) {
		cpu1 := w.cpu(1)
		tpu1 := w.tpu(1)
		tpu8 := w.tpu(8)
		rtx := w.gpu(gpusim.New(gpusim.RTX2080()), 1)
		// Jetson runs the scaled dataset (4 GB memory, section 9.4);
		// its speedup compares against the CPU on the same scaled
		// input.
		jcpu := cpu1
		if w.jetsonScale < 1 {
			jcpu = scaleMetrics(cpu1, w.jetsonScale)
		}
		jet := w.gpu(gpusim.New(gpusim.JetsonNano()), w.jetsonScale)
		rep.addRow(w.name, f2x(tpu1.Speedup(cpu1)), f2x(rtx.Speedup(cpu1)), f2x(jet.Speedup(jcpu)),
			f2x(tpu8.Speedup(cpu1)), pct(tpu1.EnergyRatio(cpu1)), pct(rtx.EnergyRatio(cpu1)),
			pct(jet.EnergyRatio(jcpu)), pct(tpu8.EnergyRatio(cpu1)))
	}
	var avg []Cell
	for _, col := range rep.Header[1:] {
		avg = append(avg, rep.mean(rep.Rows, col))
	}
	rep.addRow("Average", avg...)
	rep.addNote("paper: RTX 2080 364x vs CPU core (69x vs Edge TPU); Jetson 1.15x vs CPU (2.30x vs TPU); 8x TPU most energy-efficient (-40%%), RTX +9%% energy")
	rep.addNote("Jetson inputs scaled per section 9.4 (4 GB memory); its columns compare against the CPU at the same scaled size")
	return rep
}

// scaleMetrics approximates the CPU baseline at a linearly scaled
// input without re-running it: work scales between quadratically
// (streaming apps) and cubically (GEMM-like apps) in the linear
// dimension, so the conservative cubic factor is used. Only the
// Jetson rows depend on it, and only for ordering.
func scaleMetrics(m apps.Metrics, sc float64) apps.Metrics {
	f := math.Pow(sc, 3)
	m.Elapsed = timing.FromSeconds(m.Elapsed.Seconds() * f)
	m.Energy.Makespan = timing.FromSeconds(m.Energy.Makespan.Seconds() * f)
	m.Energy.ActiveJoules *= f
	m.Energy.IdleJoules *= f
	return m
}
