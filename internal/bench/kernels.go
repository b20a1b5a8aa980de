package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/edgetpu"
	"repro/internal/tensor"
)

// Kernels characterizes the functional kernel substrate: every hot
// Table 1 instruction measured naive (ops_ref.go) against optimized
// (ops.go/ops_fast.go) on paper tile shapes — 128x128 for arithmetic
// instructions, 64x64 for the matrix-wise reductions — from the same
// binary. The equivalence suite pins the two bit-identical, so the
// speedup column is pure implementation, not semantics. A dispatch
// re-run appends below: the same serial-vs-parallel IQ protocol as
// the `dispatch` experiment, now riding the blocked kernels and
// pooled tile buffers.
func Kernels(o Opts) *Report {
	rep := &Report{
		ID:     "kernels",
		Title:  "Kernel substrate: naive vs blocked int8 compute (bit-identical results)",
		Header: []string{"kernel", "shape", "naive", "optimized", "naive-tput", "opt-tput", "speedup"},
	}
	budget := 5 * time.Millisecond
	if o.Full {
		budget = 50 * time.Millisecond
	}

	rng := uint32(1)
	randI8 := func(rows, cols int) *tensor.MatrixI8 {
		m := tensor.NewI8(rows, cols)
		for i := range m.Data {
			rng = rng*1664525 + 1013904223
			m.Data[i] = int8(rng >> 24)
		}
		return m
	}

	const tile = 128
	in := randI8(tile, tile)
	b2 := randI8(tile, tile)
	k3 := randI8(3, 3)
	vec := make([]int8, tile)
	copy(vec, in.Row(0))
	red := randI8(64, 64)

	// GEMM-as-strided-conv2D operands for an n=128 inner dimension:
	// s = ceil(sqrt(128)) = 12, each window/kernel row one flattened
	// 12x12 block with columns 128..144 left zero — the exact padded
	// layout MatMul derives. The naive closure rebuilds the stacked and
	// per-channel headers per call and computes the full padded conv,
	// as the pre-substrate closure did; the optimized closure runs the
	// current one (truncated views skip the zero tail — bit-identical,
	// pinned by TestConv2DGemmZeroTailEquivalence).
	side := int(math.Ceil(math.Sqrt(float64(tile))))
	n2 := side * side
	segN := tile
	wins := tensor.NewI8(tile, n2)
	kers := tensor.NewI8(tile, n2)
	for r := 0; r < tile; r++ {
		ww, kk := wins.Row(r), kers.Row(r)
		for i := 0; i < segN; i++ {
			rng = rng*1664525 + 1013904223
			ww[i] = int8(rng >> 24)
			rng = rng*1664525 + 1013904223
			kk[i] = int8(rng >> 24)
		}
	}

	type cell struct {
		name  string
		shape string
		bytes int64 // data moved per op: operands in + results out
		naive func()
		fast  func()
	}
	cells := []cell{
		{"conv2D-gemm", fmt.Sprintf("%dx%d.%d", tile, tile, n2),
			int64(tile*n2)*2 + int64(tile*tile)*4,
			func() {
				stacked := &tensor.MatrixI8{Rows: tile * side, Cols: side, Stride: side, Data: wins.Data}
				kviews := make([]*tensor.MatrixI8, tile)
				for ch := range kviews {
					kviews[ch] = &tensor.MatrixI8{Rows: side, Cols: side, Stride: side, Data: kers.Row(ch)}
				}
				drop32s(edgetpu.RefConv2D(stacked, kviews, side, side))
			},
			func() {
				tensor.PutI32(edgetpu.Conv2DGemm(wins.View(0, 0, tile, segN), kers.View(0, 0, tile, segN)))
			}},
		{"conv2D-3x3", fmt.Sprintf("%dx%d", tile, tile),
			int64(tile*tile) * 5,
			func() { drop32s(edgetpu.RefConv2D(in, []*tensor.MatrixI8{k3}, 1, 1)) },
			func() { put32s(edgetpu.Conv2D(in, []*tensor.MatrixI8{k3}, 1, 1)) }},
		{"fullyConnected", fmt.Sprintf("%dx%d", tile, tile),
			int64(tile*tile) + int64(tile)*5,
			func() { _ = edgetpu.RefFullyConnected(in, vec) },
			func() { _ = edgetpu.FullyConnected(in, vec) }},
		{"add", fmt.Sprintf("%dx%d", tile, tile),
			int64(tile*tile) * 6,
			func() { _ = edgetpu.RefAdd(in, b2) },
			func() { tensor.PutI32(edgetpu.Add(in, b2)) }},
		{"mul", fmt.Sprintf("%dx%d", tile, tile),
			int64(tile*tile) * 6,
			func() { _ = edgetpu.RefMul(in, b2) },
			func() { tensor.PutI32(edgetpu.Mul(in, b2)) }},
		{"tanh", fmt.Sprintf("%dx%d", tile, tile),
			int64(tile*tile) * 2,
			func() { _ = edgetpu.RefTanhLUT(in, 11.7) },
			func() { tensor.PutI8(edgetpu.TanhLUT(in, 11.7)) }},
		{"crop", fmt.Sprintf("%dx%d->96x96", tile, tile),
			int64(96*96) * 2,
			func() { _ = edgetpu.RefCrop(in, 16, 16, 96, 96) },
			func() { tensor.PutI8(edgetpu.Crop(in, 16, 16, 96, 96)) }},
		{"mean", "64x64", 64 * 64,
			func() { _, _ = edgetpu.RefMeanSum(red) },
			func() { _, _ = edgetpu.MeanSum(red) }},
		{"max", "64x64", 64 * 64,
			func() { _ = edgetpu.RefMaxVal(red) },
			func() { _ = edgetpu.MaxVal(red) }},
	}

	for _, c := range cells {
		nn := timeKernel(budget, c.naive)
		nf := timeKernel(budget, c.fast)
		rep.AddRow(c.name, c.shape,
			nsop(nn), nsop(nf), gbps(c.bytes, nn), gbps(c.bytes, nf), f2x(nn/nf))
	}
	rep.AddNote("naive = ops_ref.go reference kernels; optimized = ops.go/ops_fast.go blocked kernels with pooled buffers")
	rep.AddNote("equivalence suite (internal/edgetpu/equiv_test.go) pins both bit-identical; speedup is implementation only")
	rep.AddNote("conv2D-gemm naive rebuilds the stacked/per-channel headers per call and convolves the full zero-padded %dx%d layout, as the pre-substrate closure did; optimized truncates the known zero tail at %d live columns (bit-identical, pinned by TestConv2DGemmZeroTailEquivalence)", side, side, segN)

	// Dispatch re-run on the new substrate: same workload and
	// measurement protocol as the `dispatch` experiment.
	n := 256
	if o.Full {
		n = 768
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	for _, devs := range []int{4, 8} {
		serial := measureDispatch(devs, 1, n, dispatchReps)
		par := measureDispatch(devs, workers, n, dispatchReps)
		rep.AddNote("dispatch devices=%d: serial %.3fs, %d workers %.3fs, wall-speedup %.2fx (makespan %s)",
			devs, serial.wall.Seconds(), workers, par.wall.Seconds(),
			serial.wall.Seconds()/par.wall.Seconds(), makespanNote(serial, par))
	}
	rep.AddNote("host pin: GOMAXPROCS=%d — at GOMAXPROCS=1 the multi-worker ceiling is parity, so the dispatch re-run measures dispatch overhead (the seed engine ran 0.85-0.86x here), not hardware parallelism", runtime.GOMAXPROCS(0))
	return rep
}

// drop32s discards a reference conv2D result (heap-allocated, not
// pooled).
func drop32s(outs []*tensor.MatrixI32) {
	_ = outs
}

// put32s recycles an optimized conv2D result.
func put32s(outs []*tensor.MatrixI32) {
	for _, o := range outs {
		tensor.PutI32(o)
	}
}

// timeKernel reports the best of three mean-over-budget repetitions,
// after one untimed warmup call — the same best-of protocol the
// dispatch experiment uses, since on a shared host the minimum is the
// estimate least polluted by scheduler preemption. A forced
// collection before each repetition isolates cells from each other's
// garbage — without it a naive cell's allocation debt lands as GC
// pause inside the next (often optimized, allocation-free) cell.
func timeKernel(budget time.Duration, f func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		f()
		start := time.Now()
		iters := 0
		for time.Since(start) < budget {
			f()
			iters++
		}
		if mean := float64(time.Since(start).Nanoseconds()) / float64(iters); mean < best {
			best = mean
		}
	}
	return best
}

// nsop formats nanoseconds per op adaptively.
func nsop(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// gbps formats effective throughput for bytes moved per op.
func gbps(bytes int64, ns float64) string {
	return fmt.Sprintf("%.2fGB/s", float64(bytes)/ns)
}

// makespanNote summarizes the virtual-makespan invariant for one
// dispatch pairing.
func makespanNote(serial, par dispatchRun) string {
	if serial.makespan == par.makespan {
		return fmt.Sprintf("identical, %.6fs", par.makespan)
	}
	return fmt.Sprintf("DIVERGED %.9fs vs %.9fs", serial.makespan, par.makespan)
}
