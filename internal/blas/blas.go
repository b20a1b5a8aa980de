// Package blas provides the CPU baseline implementations the paper
// compares against (section 8.2): an OpenBLAS-style float32 GEMM, an
// FBGEMM-style low-precision int8 GEMM (including the 16-bit
// accumulation overflow behaviour that dominates Table 5), and the
// OpenMP-style multicore execution model used for Figure 8(a)'s
// "8 CPUs" bars.
//
// Like the Edge TPU simulator, the baselines are dual: functional
// float32/int8 computation plus virtual-time charges on a simulated
// Ryzen 3700X (single memory bus shared by up to 8 cores, which is
// what limits OpenMP scaling for the memory-bound workloads).
package blas

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/timing"
)

// CPU is a simulated baseline host: N cores and one shared memory bus.
type CPU struct {
	params *timing.Params
	TL     *timing.Timeline
	cores  []*timing.Resource
	mem    *timing.Resource
}

// NewCPU builds a CPU machine with the given core count (the paper's
// Ryzen 3700X has 8).
func NewCPU(params *timing.Params, cores int) *CPU {
	if params == nil {
		params = timing.Default()
	}
	if cores <= 0 || cores > params.CPU.Cores {
		panic(fmt.Sprintf("blas: core count %d outside [1,%d]", cores, params.CPU.Cores))
	}
	tl := timing.NewTimeline()
	c := &CPU{params: params, TL: tl, mem: tl.NewResource("membus")}
	for i := 0; i < cores; i++ {
		c.cores = append(c.cores, tl.NewResource(fmt.Sprintf("cpu-core%d", i)))
	}
	return c
}

// Elapsed returns the virtual makespan.
func (c *CPU) Elapsed() timing.Duration { return c.TL.Makespan() }

// Energy returns the wall-power accounting (idle floor + loaded
// cores).
func (c *CPU) Energy() energy.Report { return energy.Measure(c.TL) }

// chargeParallel splits total core-work across threads cores starting
// at ready and returns the completion time. Multithreaded runs keep an
// Amdahl serial share on core 0 (OpenMP setup, reductions, imbalance —
// what limits Rodinia's 8-core ports to the paper's 2.70x average).
func (c *CPU) chargeParallel(ready, total timing.Duration, threads int) timing.Duration {
	if threads <= 0 || threads > len(c.cores) {
		threads = len(c.cores)
	}
	if threads == 1 {
		_, end := c.cores[0].Acquire(ready, total)
		c.TL.Observe(end)
		return end
	}
	serial := timing.Duration(float64(total) * c.params.CPU.OMPSerialFraction)
	share := (total - serial) / timing.Duration(threads)
	_, end := c.cores[0].Acquire(ready, serial+share)
	for i := 1; i < threads; i++ {
		_, e := c.cores[i].Acquire(ready, share)
		if e > end {
			end = e
		}
	}
	c.TL.Observe(end)
	return end
}

// ChargeGemm charges an MxNxK float32 GEMM across threads cores
// (compute-bound: near-linear OpenMP scaling).
func (c *CPU) ChargeGemm(ready timing.Duration, m, n, k int64, threads int) timing.Duration {
	return c.chargeParallel(ready, c.params.CPUGemmTime(m, n, k), threads)
}

// ChargeInt8Gemm charges an FBGEMM-style int8 GEMM.
func (c *CPU) ChargeInt8Gemm(ready timing.Duration, m, n, k int64, threads int) timing.Duration {
	return c.chargeParallel(ready, c.params.CPUInt8GemmTime(m, n, k), threads)
}

// ChargeStream charges elems streaming element-operations touching
// the given bytes: core time splits across threads, but every byte
// crosses the one memory bus, which caps multicore scaling for
// memory-bound kernels (the paper's OpenMP baselines average only
// 2.70x on 8 cores, Figure 8a).
func (c *CPU) ChargeStream(ready timing.Duration, elems, bytes int64, threads int) timing.Duration {
	if threads <= 0 || threads > len(c.cores) {
		threads = len(c.cores)
	}
	compute := timing.FromSeconds(float64(elems) / c.params.CPU.ElemRate)
	end := c.chargeParallel(ready, compute, threads)
	_, memEnd := c.mem.Acquire(ready, timing.FromSeconds(float64(bytes)/c.params.CPU.MemBandwidth))
	if memEnd > end {
		end = memEnd
	}
	c.TL.Observe(end)
	return end
}

// ChargeScalar charges n transcendental-heavy scalar operations
// (exp/log/sqrt chains) split across threads cores.
func (c *CPU) ChargeScalar(ready timing.Duration, n int64, threads int) timing.Duration {
	return c.chargeParallel(ready, c.params.CPUScalarTime(n), threads)
}

// ChargeNaiveGemm charges an MxNxK product through the Rodinia-style
// hand-written GEMM loops (the backprop and LUD baselines).
func (c *CPU) ChargeNaiveGemm(ready timing.Duration, m, n, k int64, threads int) timing.Duration {
	return c.chargeParallel(ready, c.params.CPUNaiveGemmTime(m, n, k), threads)
}

// ChargeStencil charges elems grid-point updates of the Rodinia
// hotspot3D reference kernel, bounded by the shared memory bus.
func (c *CPU) ChargeStencil(ready timing.Duration, elems, bytes int64, threads int) timing.Duration {
	if threads <= 0 || threads > len(c.cores) {
		threads = len(c.cores)
	}
	compute := timing.FromSeconds(float64(elems) / c.params.CPU.StencilRate)
	end := c.chargeParallel(ready, compute, threads)
	_, memEnd := c.mem.Acquire(ready, timing.FromSeconds(float64(bytes)/c.params.CPU.MemBandwidth))
	if memEnd > end {
		end = memEnd
	}
	c.TL.Observe(end)
	return end
}

// ChargeGraph charges edge-centric graph traversal (random-access
// patterns; PageRank's baseline), bounded by the shared memory bus.
func (c *CPU) ChargeGraph(ready timing.Duration, edges, bytes int64, threads int) timing.Duration {
	if threads <= 0 || threads > len(c.cores) {
		threads = len(c.cores)
	}
	compute := timing.FromSeconds(float64(edges) / c.params.CPU.GraphEdgeRate)
	end := c.chargeParallel(ready, compute, threads)
	_, memEnd := c.mem.Acquire(ready, timing.FromSeconds(float64(bytes)/c.params.CPU.MemBandwidth))
	if memEnd > end {
		end = memEnd
	}
	c.TL.Observe(end)
	return end
}
