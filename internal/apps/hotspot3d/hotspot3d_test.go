package hotspot3d

import (
	"testing"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

func TestGenerate(t *testing.T) {
	cfg := Config{N: 32, Layers: 4, Seed: 1}
	temp, power := cfg.Generate()
	if len(temp) != 4 || len(power) != 4 || temp[0].Rows != 32 {
		t.Fatal("bad workload shapes")
	}
}

func TestReferenceConservesScale(t *testing.T) {
	// The stencil is a weighted average plus bounded power injection:
	// temperatures must stay in a physical range.
	cfg := Config{N: 24, Layers: 3, Iters: 5, Seed: 2}
	temp, power := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	out, _ := RunCPU(cpu, 1, cfg, temp, power)
	for _, layer := range out {
		min, max := layer.MinMax()
		if min < 20 || max > 120 {
			t.Fatalf("temperature escaped physical range: [%v, %v]", min, max)
		}
	}
}

func TestTPUMatchesReference(t *testing.T) {
	cfg := Config{N: 140, Layers: 3, Iters: 4, Seed: 3}
	temp, power := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	ref, _ := RunCPU(cpu, 1, cfg, cloneStack(temp), power)
	ctx := gptpu.Open(gptpu.Config{})
	got, _, err := RunTPU(ctx, cfg, temp, power)
	if err != nil {
		t.Fatal(err)
	}
	for z := range ref {
		if e := tensor.RMSE(ref[z], got[z]); e > 0.02 {
			t.Fatalf("layer %d RMSE %v", z, e)
		}
	}
}

func cloneStack(s []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(s))
	for i, m := range s {
		out[i] = m.Clone()
	}
	return out
}

func TestDataMovementDominates(t *testing.T) {
	// The paper's explanation for HotSpot3D's small speedup: per
	// iteration the grids re-ship. Verify transfers occupy more
	// virtual time than compute on the device.
	cfg := Config{N: 256, Layers: 4, Iters: 3, Seed: 4}
	ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
	if _, _, err := RunTPU(ctx, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	var linkBusy, computeBusy float64
	for _, r := range ctx.TL.Resources() {
		switch {
		case len(r.Name) > 4 && r.Name[:4] == "pcie":
			linkBusy += r.BusyTime().Seconds()
		case len(r.Name) > 7 && r.Name[:7] == "edgetpu":
			computeBusy += r.BusyTime().Seconds()
		}
	}
	if linkBusy <= computeBusy {
		t.Fatalf("expected transfer-bound behaviour: link %.4fs vs compute %.4fs", linkBusy, computeBusy)
	}
}

func TestRunGPUCharges(t *testing.T) {
	g := gpusim.New(gpusim.JetsonNano())
	m := RunGPU(g, Config{N: 512, Layers: 4, Iters: 5})
	if m.Elapsed <= 0 {
		t.Fatal("no GPU time charged")
	}
}

func TestFloorplanPowerMaps(t *testing.T) {
	cfg := Config{N: 64, Layers: 2, Hotspots: 3, Seed: 11}
	_, power := cfg.Generate()
	// A floorplan layout must be bimodal: some cells near ambient,
	// some in the hotspot band.
	var low, high int
	for _, v := range power[0].Data {
		if v <= 1 {
			low++
		}
		if v >= 6 {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("power map not bimodal: %d low, %d high", low, high)
	}
	// The simulation must still track the exact reference on it.
	cfg.Iters = 3
	temp, power := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	ref, _ := RunCPU(cpu, 1, cfg, cloneStack(temp), power)
	ctx := gptpu.Open(gptpu.Config{})
	got, _, err := RunTPU(ctx, cfg, temp, power)
	if err != nil {
		t.Fatal(err)
	}
	for z := range ref {
		if e := tensor.RMSE(ref[z], got[z]); e > 0.03 {
			t.Fatalf("layer %d RMSE %v on floorplan workload", z, e)
		}
	}
}
