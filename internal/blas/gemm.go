package blas

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// gemmNR is the width of the float32 kernel's register tile: Gemm
// packs gemmNR columns of B at a time into one contiguous panel and
// sweeps it with a 2 x gemmNR tile of C held in registers, so each
// element of A loaded feeds gemmNR products and each panel element two.
// Three columns is the widest tile whose six sums, two A elements and
// six in-flight products fit amd64's fifteen allocatable float
// registers; a 2 x 4 tile spills sums to the stack inside the loop and
// runs 20-30 % slower.
const gemmNR = 3

// gemmStackDepth is the deepest panel Gemm packs into a stack array;
// deeper ones borrow their scratch from the tensor recycler.
const gemmStackDepth = 64

// infBits is a float32's exponent field: all ones in Inf and NaN only.
const infBits = 0x7f800000

// Gemm computes C = A*B with the packed, register-tiled float32
// algorithm of the OpenBLAS-style baseline [69]. It is the functional
// reference for every GEMM accuracy comparison.
//
// Every element of C is the float32 sum of its products in ascending
// depth order, starting from +0, exactly as NaiveGemm computes it. The
// one exception is kept from the earlier blocked kernel: a zero in A
// contributes nothing, even against an infinite or NaN element of B
// (where 0*Inf would be NaN). Against a finite B, adding the +-0
// product of a zero cannot change a sum that started at +0, so only a
// panel holding a non-finite value needs the explicit skip.
func Gemm(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("blas: Gemm inner dimensions %d vs %d", a.Cols, b.Rows))
	}
	out := tensor.New(a.Rows, b.Cols)
	gemmInto(out, a, b)
	return out
}

// gemmInto stores A*B into out, whose shape the caller checked.
func gemmInto(out, a, b *tensor.Matrix) {
	m, n, k := a.Rows, a.Cols, b.Cols
	var stack [gemmStackDepth * gemmNR]float32
	panel := stack[:]
	if n > gemmStackDepth {
		scratch := tensor.GetForOverwrite[float32](1, n*gemmNR)
		defer tensor.Put(scratch)
		panel = scratch.Data
	}
	panel = panel[:n*gemmNR]
	for j0 := 0; j0 < k; j0 += gemmNR {
		w := min(gemmNR, k-j0)
		finite := packPanel(panel, b, j0, w)
		i := 0
		if finite {
			for ; i+2 <= m; i += 2 {
				tile2(out.Row(i)[j0:j0+w], out.Row(i + 1)[j0:j0+w], a.Row(i), a.Row(i+1), panel)
			}
		}
		for ; i < m; i++ {
			tile1Skip(out.Row(i)[j0:j0+w], a.Row(i), panel)
		}
	}
}

// packPanel copies columns j0..j0+w of B into panel, gemmNR values per
// depth step with the columns past w zeroed, and reports whether every
// value it copied is finite.
func packPanel(panel []float32, b *tensor.Matrix, j0, w int) bool {
	finite := true
	for l := 0; l < b.Rows; l++ {
		p := panel[l*gemmNR : l*gemmNR+gemmNR]
		src := b.Row(l)[j0 : j0+w]
		for j := range p {
			var v float32
			if j < w {
				v = src[j]
				finite = finite && math.Float32bits(v)&infBits != infBits
			}
			p[j] = v
		}
	}
	return finite
}

// tile2 stores rows a0 and a1 of A times a finite packed panel into o0
// and o1 (the first len(o0) panel columns). The six sums stay in
// registers over the whole depth and each adds its products in
// ascending order.
func tile2(o0, o1, a0, a1, panel []float32) {
	a1 = a1[:len(a0)]
	panel = panel[:len(a0)*gemmNR]
	var c00, c01, c02, c10, c11, c12 float32
	for l, x0 := range a0 {
		x1 := a1[l]
		p := panel[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
		b := p[0]
		c00 += x0 * b
		c10 += x1 * b
		b = p[1]
		c01 += x0 * b
		c11 += x1 * b
		b = p[2]
		c02 += x0 * b
		c12 += x1 * b
	}
	r0 := [gemmNR]float32{c00, c01, c02}
	r1 := [gemmNR]float32{c10, c11, c12}
	copy(o0, r0[:])
	copy(o1, r1[:])
}

// tile1Skip stores row a0 of A times the packed panel into o0, skipping
// the zeros of a0: the tile for a panel holding Inf or NaN, and for
// the odd last row.
func tile1Skip(o0, a0, panel []float32) {
	panel = panel[:len(a0)*gemmNR]
	var c [gemmNR]float32
	for l, x := range a0 {
		if x == 0 {
			continue
		}
		p := panel[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
		c[0] += x * p[0]
		c[1] += x * p[1]
		c[2] += x * p[2]
	}
	copy(o0, c[:])
}

// NaiveGemm is the textbook triple loop, kept as an oracle for
// property tests against the blocked kernel.
func NaiveGemm(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("blas: NaiveGemm inner dimensions %d vs %d", a.Cols, b.Rows))
	}
	out := tensor.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for l := 0; l < a.Cols; l++ {
				acc += a.At(i, l) * b.At(l, j)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// MatVec computes y = A*x in float32 (the PageRank baseline's power
// iteration step).
func MatVec(a *tensor.Matrix, x []float32) []float32 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("blas: MatVec length %d vs cols %d", len(x), a.Cols))
	}
	y := make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var acc float64
		for j, v := range row {
			acc += float64(v) * float64(x[j])
		}
		y[i] = float32(acc)
	}
	return y
}

// GemmParallel computes C = A*B with Gemm's kernel fanned out across
// the real machine's cores, each worker storing its rows of C in
// place. It is the oracle-side counterpart used by the experiment
// harness for large reference products; the simulated baselines charge
// virtual time separately.
func GemmParallel(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("blas: GemmParallel inner dimensions %d vs %d", a.Cols, b.Rows))
	}
	out := tensor.New(a.Rows, b.Cols)
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 {
		gemmInto(out, a, b)
		return out
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		if r0 >= a.Rows {
			break
		}
		r1 := min(r0+chunk, a.Rows)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			gemmInto(out.View(r0, 0, r1-r0, out.Cols), a.View(r0, 0, r1-r0, a.Cols), b)
		}(r0, r1)
	}
	wg.Wait()
	return out
}
