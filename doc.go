// Package gptpu is a Go reproduction of GPTPU — General-Purpose
// Computing on Edge Tensor Processing Units (Hsu & Tseng, SC '21) —
// built on a bit-exact, timing-calibrated Edge TPU simulator.
//
// The package exposes the OpenCtpu programming interface of the
// paper's section 5: a host program allocates dimensions, creates
// buffers over raw float data, enqueues kernel functions that invoke
// TPU operators, and synchronizes on their completion. Context, Op,
// Buffer, Graph and Task are aliases of the GPTPU runtime's own types
// (internal/core), which rewrites each operator into Edge TPU
// instructions at their optimal tile shapes (Tensorizer), schedules
// them across the attached Edge TPUs with locality-aware placement,
// and accounts virtual time and energy on the simulated machine.
//
// A minimal program mirroring the paper's Figure 3:
//
//	ctx := gptpu.Open(gptpu.Config{Devices: 1})
//	dim := gptpu.AllocDimension(2, n, n)
//	a := ctx.CreateBuffer(dim, dataA)
//	b := ctx.CreateBuffer(dim, dataB)
//	var c *tensor.Matrix
//	task := ctx.Enqueue(func(op *gptpu.Op) {
//		c = op.Gemm(a, b) // tpuGemm: the conv2D-based GEMM of section 7.1.2
//	})
//	if err := ctx.Sync(); err != nil { ... }
//
// Performance experiments run with Config.TimingOnly set, in which case
// operators charge virtual time without computing results; accuracy
// experiments run fully functionally. See DESIGN.md and EXPERIMENTS.md
// for the experiment-by-experiment reproduction of the paper's tables
// and figures.
package gptpu
