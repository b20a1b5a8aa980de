// Package gpusim provides throughput-model GPU devices for the
// Figure 9 comparison platforms: NVIDIA's RTX 2080 (Turing, 215 W)
// and the embedded Jetson Nano (10 W). Real GPUs are unavailable, and
// Figure 9 only requires orderings and rough factors, so each device
// is a calibrated rate model: kernels cost a launch overhead plus the
// max of their compute-bound and bandwidth-bound times, and host
// transfers cross a PCIe-like link. Functional results are not
// computed on the GPU paths (the paper reports no GPU accuracy).
package gpusim

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/timing"
)

// Precision selects the ALU rate for a kernel. Section 9.4: "We
// enabled RTX-2080's 16-bit ALUs for Gaussian, HotSpot3D, Backprop
// and Tensor Cores in 8-bit mode for GEMM."
type Precision int

const (
	FP32 Precision = iota
	FP16
	INT8
)

// Model is the calibrated description of one GPU platform.
type Model struct {
	// Name doubles as the timeline resource prefix for the energy
	// model ("gpu-rtx2080", "gpu-jetson").
	Name string
	// Flops by precision (effective sustained, not peak marketing).
	FP32Flops, FP16Flops, Int8Ops float64
	// MemBW is device memory bandwidth, bytes/second.
	MemBW float64
	// HostBW is the host<->device transfer bandwidth, bytes/second.
	HostBW float64
	// Launch is the per-kernel launch overhead.
	Launch timing.Duration
	// MemBytes is device memory capacity; inputs that do not fit must
	// be scaled down by the caller (the paper scales Jetson inputs by
	// 25-50% "to not crash the GPU kernel", section 9.4).
	MemBytes int64
	// IdleWatts is the platform idle floor when this device hosts the
	// run (the RTX sits in the 40 W prototype machine; the Jetson dev
	// kit idles at 0.5 W).
	IdleWatts float64
}

// RTX2080 returns the high-end Turing card of Table 6 (USD 699.66,
// 215 W). Sustained rates estimated from public benchmarks: ~9
// TFLOP/s FP32, ~2x FP16, ~65 TOPS on 8-bit tensor cores derated to
// ~40 effective, 448 GB/s GDDR6, PCIe 3.0 x16.
func RTX2080() *Model {
	return &Model{
		Name:      "gpu-rtx2080",
		FP32Flops: 9.0e12,
		FP16Flops: 1.8e13,
		Int8Ops:   4.0e13,
		MemBW:     4.48e11,
		HostBW:    1.2e10,
		Launch:    timing.FromSeconds(10e-6),
		MemBytes:  8 << 30,
		IdleWatts: energy.PlatformIdleWatts,
	}
}

// JetsonNano returns the embedded platform of Table 6 (USD 123.99,
// 10 W): 128 Maxwell cores, 472 GFLOP/s FP32 *peak*, shared 25.6 GB/s
// LPDDR4, 4 GB unified memory. Rates are heavily derated: Rodinia
// kernels on the Nano run at tiny occupancy, the GPU contends with
// the Cortex-A57 host complex for the shared DRAM, and host-side
// phases on the slow ARM cores dominate copies. The paper's own
// Jetson statements bracket it between ~1.15x and ~5.7x of a Ryzen
// core depending on which figure is read (see EXPERIMENTS.md); this
// derating lands the simulated platform inside that bracket.
func JetsonNano() *Model {
	return &Model{
		Name:      "gpu-jetson",
		FP32Flops: 3.0e10,
		FP16Flops: 6.0e10,
		Int8Ops:   6.0e10,
		MemBW:     6.0e9,
		HostBW:    1.5e9, // unified-memory copies + ARM-host preparation
		Launch:    timing.FromSeconds(25e-6),
		MemBytes:  4 << 30,
		IdleWatts: energy.JetsonIdleWatts,
	}
}

// GPU is one simulated device instance with its own timeline.
type GPU struct {
	M       *Model
	TL      *timing.Timeline
	compute *timing.Resource
	link    *timing.Resource
}

// New builds a GPU machine.
func New(m *Model) *GPU {
	tl := timing.NewTimeline()
	return &GPU{
		M:       m,
		TL:      tl,
		compute: tl.NewResource(m.Name),
		link:    tl.NewResource(m.Name + "-link"),
	}
}

// Transfer charges a host<->device copy and returns its completion.
func (g *GPU) Transfer(ready timing.Duration, bytes int64) timing.Duration {
	if bytes <= 0 {
		return ready
	}
	_, end := g.link.Acquire(ready, timing.FromSeconds(float64(bytes)/g.M.HostBW))
	g.TL.Observe(end)
	return end
}

// Kernel charges one GPU kernel: launch overhead plus the larger of
// its compute time (flops at the chosen precision) and its memory
// time (bytes over device bandwidth).
func (g *GPU) Kernel(ready timing.Duration, flops float64, bytes int64, prec Precision) timing.Duration {
	rate := g.M.FP32Flops
	switch prec {
	case FP16:
		rate = g.M.FP16Flops
	case INT8:
		rate = g.M.Int8Ops
	}
	if rate <= 0 {
		panic(fmt.Sprintf("gpusim: %s has no rate for precision %d", g.M.Name, prec))
	}
	t := flops / rate
	if mem := float64(bytes) / g.M.MemBW; mem > t {
		t = mem
	}
	_, end := g.compute.Acquire(ready, g.M.Launch+timing.FromSeconds(t))
	g.TL.Observe(end)
	return end
}

// Elapsed returns the virtual makespan.
func (g *GPU) Elapsed() timing.Duration { return g.TL.Makespan() }

// Energy returns the platform energy accounting.
func (g *GPU) Energy() energy.Report {
	return energy.MeasureWith(g.TL, energy.PowerFor, g.M.IdleWatts)
}

// Reset rewinds virtual time.
func (g *GPU) Reset() { g.TL.Reset() }
