package edgetpu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// Kernel microbenchmarks: every hot instruction with a fast twin
// measured naive (ops_ref.go) against optimized (ops.go/ops_fast.go)
// on paper tile shapes — 128x128 arithmetic tiles, 64x64 reduction
// tiles (mean and max have one kernel each, measured alone). SetBytes
// counts data moved per op (int8 operands in, results out) so -bench
// reports comparable MB/s columns; ReportAllocs pins the pooled
// paths' steady-state allocation behaviour.
//
// These benchmarks are the one host-clock view of the naive vs
// optimized comparison (go test -bench . ./internal/edgetpu); the repo
// benchmark reports the optimized kernels at operand shape as its
// edgetpu.kernel_us.* layer metrics.

const benchTile = 128

func benchMatrix(rows, cols int, seed uint32) *tensor.MatrixI8 {
	m := tensor.NewI8(rows, cols)
	state := seed*2654435761 + 1
	for i := range m.Data {
		state = state*1664525 + 1013904223
		m.Data[i] = int8(state >> 24)
	}
	return m
}

// gemmOperands builds the exact operand layout the Gemm closure
// derives for an inner dimension of benchTile: each row holds segN
// live int8 values zero-padded to n2 = s*s (the padded row *is* one
// flattened s x s window / kernel).
func gemmOperands() (wins, kers *tensor.MatrixI8, side, segN int) {
	side = int(math.Ceil(math.Sqrt(float64(benchTile))))
	n2 := side * side
	segN = benchTile
	wins, kers = tensor.NewI8(benchTile, n2), tensor.NewI8(benchTile, n2)
	fill := func(m *tensor.MatrixI8, seed uint32) {
		state := seed*2654435761 + 1
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for i := 0; i < segN; i++ {
				state = state*1664525 + 1013904223
				row[i] = int8(state >> 24)
			}
		}
	}
	fill(wins, 1)
	fill(kers, 2)
	return wins, kers, side, segN
}

// Naive measures what the pre-substrate Gemm closure ran per
// instruction: build the stacked-window and per-channel kernel
// headers, then the reference strided conv2D over the full padded
// layout (the device semantics compute the zero-tail products too).
func BenchmarkConv2DGemmNaive(b *testing.B) {
	wins, kers, side, _ := gemmOperands()
	n2 := side * side
	b.SetBytes(int64(benchTile*n2)*2 + int64(benchTile*benchTile)*4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stacked := &tensor.MatrixI8{Rows: benchTile * side, Cols: side, Stride: side, Data: wins.Data}
		kviews := make([]*tensor.MatrixI8, benchTile)
		for ch := range kviews {
			kviews[ch] = &tensor.MatrixI8{Rows: side, Cols: side, Stride: side, Data: kers.Row(ch)}
		}
		_ = refConv2D(stacked, kviews, side, side)
	}
}

// Fast runs the current closure body: truncated views skip the known
// zero tail (bit-identical, pinned by TestConv2DGemmZeroTailEquivalence),
// Conv2DGemm runs the bias-packed lane dots (three multiply-adds per
// integer multiply), the pooled result recycles.
func BenchmarkConv2DGemmFast(b *testing.B) {
	wins, kers, side, segN := gemmOperands()
	n2 := side * side
	b.SetBytes(int64(benchTile*n2)*2 + int64(benchTile*benchTile)*4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.Put(Conv2DGemm(wins.View(0, 0, benchTile, segN), kers.View(0, 0, benchTile, segN)))
	}
}

// BenchmarkConv2DGemmShapes measures the panel product alone, compact
// operands, at the shapes the repo benchmark's layer replay times: the
// gemm_lib panel (128 windows x 512 kernels, inner 512), the 128-cube
// tile and the serve_small 32-cube. GMAC/s counts rows·channels·inner
// multiply-adds per call; the ref twin is the naive int64 loop. The
// signed panels run the biased three-row geometry; fast-nonneg runs
// the same shapes with every code in 0..127 (quantized [0, 1) data),
// the one-signed four-row geometry.
func BenchmarkConv2DGemmShapes(b *testing.B) {
	for _, sh := range [][3]int{{128, 512, 512}, {128, 128, 128}, {32, 32, 32}} {
		nw, nch, n := sh[0], sh[1], sh[2]
		wins, kers := benchMatrix(nw, n, 12), benchMatrix(nch, n, 13)
		uwins, ukers := benchMatrix(nw, n, 12), benchMatrix(nch, n, 13)
		for _, m := range []*tensor.MatrixI8{uwins, ukers} {
			for i := range m.Data {
				m.Data[i] &= 0x7f
			}
		}
		for _, k := range []struct {
			name       string
			fn         func(wins, kers *tensor.MatrixI8) *tensor.MatrixI32
			wins, kers *tensor.MatrixI8
		}{{"fast", Conv2DGemm, wins, kers}, {"ref", refConv2DGemm, wins, kers}, {"fast-nonneg", Conv2DGemm, uwins, ukers}} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", nw, nch, n, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tensor.Put(k.fn(k.wins, k.kers))
				}
				macs := float64(nw) * float64(nch) * float64(n) * float64(b.N)
				b.ReportMetric(macs/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

func BenchmarkConv2DStencilNaive(b *testing.B) {
	in := benchMatrix(benchTile, benchTile, 3)
	k := benchMatrix(3, 3, 4)
	b.SetBytes(int64(benchTile*benchTile) * 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = refConv2D(in, []*tensor.MatrixI8{k}, 1, 1)
	}
}

func BenchmarkConv2DStencilFast(b *testing.B) {
	in := benchMatrix(benchTile, benchTile, 3)
	k := benchMatrix(3, 3, 4)
	b.SetBytes(int64(benchTile*benchTile) * 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, o := range Conv2D(in, []*tensor.MatrixI8{k}, 1, 1) {
			tensor.Put(o)
		}
	}
}

func BenchmarkFullyConnectedNaive(b *testing.B) {
	w := benchMatrix(benchTile, benchTile, 5)
	vec := make([]int8, benchTile)
	copy(vec, w.Row(0))
	b.SetBytes(int64(benchTile*benchTile) + int64(benchTile)*5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = refFullyConnected(w, vec)
	}
}

func BenchmarkFullyConnectedFast(b *testing.B) {
	w := benchMatrix(benchTile, benchTile, 5)
	vec := make([]int8, benchTile)
	copy(vec, w.Row(0))
	dst := make([]int32, benchTile)
	b.SetBytes(int64(benchTile*benchTile) + int64(benchTile)*5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FullyConnectedInto(dst, w, vec)
	}
}

func BenchmarkAddNaive(b *testing.B) {
	x := benchMatrix(benchTile, benchTile, 6)
	y := benchMatrix(benchTile, benchTile, 7)
	b.SetBytes(int64(benchTile*benchTile) * 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = refAdd(x, y)
	}
}

func BenchmarkAddFast(b *testing.B) {
	x := benchMatrix(benchTile, benchTile, 6)
	y := benchMatrix(benchTile, benchTile, 7)
	b.SetBytes(int64(benchTile*benchTile) * 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.Put(Add(x, y))
	}
}

func BenchmarkTanhNaive(b *testing.B) {
	in := benchMatrix(benchTile, benchTile, 8)
	b.SetBytes(int64(benchTile*benchTile) * 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = refTanhLUT(in, 11.7)
	}
}

func BenchmarkTanhFast(b *testing.B) {
	in := benchMatrix(benchTile, benchTile, 8)
	b.SetBytes(int64(benchTile*benchTile) * 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.Put(TanhLUT(in, 11.7))
	}
}

func BenchmarkCropNaive(b *testing.B) {
	in := benchMatrix(benchTile, benchTile, 9)
	b.SetBytes(int64(96*96) * 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = refCrop(in, 16, 16, 96, 96)
	}
}

func BenchmarkCropFast(b *testing.B) {
	in := benchMatrix(benchTile, benchTile, 9)
	b.SetBytes(int64(96*96) * 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.Put(Crop(in, 16, 16, 96, 96))
	}
}

func BenchmarkMean(b *testing.B) {
	in := benchMatrix(64, 64, 10)
	b.SetBytes(64 * 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = MeanSum(in)
	}
}

func BenchmarkMax(b *testing.B) {
	in := benchMatrix(64, 64, 11)
	b.SetBytes(64 * 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MaxVal(in)
	}
}
