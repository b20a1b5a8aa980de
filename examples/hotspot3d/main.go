// HotSpot3D on GPTPU: the section 7.2.2 thermal simulation, mapping
// the in-plane stencil to unstrided 3x3 conv2D instructions. The
// example also shows why this workload gains least on GPTPU: the
// temperature grids re-quantize and re-ship every iteration.
//
//	go run ./examples/hotspot3d
package main

import (
	"fmt"
	"log/slog"
	"os"

	gptpu "repro"
	"repro/internal/apps/hotspot3d"
	"repro/internal/blas"
	"repro/internal/tensor"
)

func main() {
	cfg := hotspot3d.Config{N: 256, Layers: 4, Iters: 8, Seed: 9}
	temp, power := cfg.Generate()

	cpu := blas.NewCPU(nil, 1)
	refStack, cpuM := hotspot3d.RunCPU(cpu, 1, cfg, cloneStack(temp), power)

	ctx := gptpu.Open(gptpu.Config{Devices: 1})
	gotStack, tpuM, err := hotspot3d.RunTPU(ctx, cfg, temp, power)
	if err != nil {
		slog.Error("hotspot3d TPU run failed", "err", err)
		os.Exit(1)
	}

	var rmse float64
	for z := range refStack {
		rmse += tensor.RMSE(refStack[z], gotStack[z])
	}
	rmse /= float64(len(refStack))

	fmt.Printf("HotSpot3D %d layers of %dx%d, %d iterations\n", cfg.Layers, cfg.N, cfg.N, cfg.Iters)
	fmt.Printf("  CPU baseline:   %v\n", cpuM.Elapsed)
	fmt.Printf("  GPTPU (1 TPU):  %v  (speedup %.2fx)\n", tpuM.Elapsed, tpuM.Speedup(cpuM))
	fmt.Printf("  temperature RMSE vs exact stencil: %.3f%%\n", 100*rmse)

	// Resource breakdown: data movement dominates, the paper's
	// explanation for HotSpot3D's 1.14x (section 9.1).
	var link, compute float64
	for _, r := range ctx.TL.Resources() {
		name := r.Name
		switch {
		case len(name) >= 4 && name[:4] == "pcie":
			link += r.BusyTime().Seconds()
		case len(name) >= 7 && name[:7] == "edgetpu":
			compute += r.BusyTime().Seconds()
		}
	}
	fmt.Printf("  PCIe busy %.1fms vs matrix-unit busy %.1fms: transfer-bound, as the paper observes\n",
		link*1e3, compute*1e3)
}

func cloneStack(s []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(s))
	for i, m := range s {
		out[i] = m.Clone()
	}
	return out
}
