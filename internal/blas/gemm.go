package blas

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// gemmBlock is the cache-blocking factor of the float32 kernel; 64
// keeps three 64x64 float32 panels (48 KB) inside a Zen 2 L2 slice.
const gemmBlock = 64

// Gemm computes C = A*B with the blocked float32 algorithm of the
// OpenBLAS-style baseline [69]. It is the functional reference for
// every GEMM accuracy comparison.
func Gemm(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("blas: Gemm inner dimensions %d vs %d", a.Cols, b.Rows))
	}
	m, n, k := a.Rows, a.Cols, b.Cols
	out := tensor.New(m, k)
	for i0 := 0; i0 < m; i0 += gemmBlock {
		iMax := min(i0+gemmBlock, m)
		for l0 := 0; l0 < n; l0 += gemmBlock {
			lMax := min(l0+gemmBlock, n)
			for j0 := 0; j0 < k; j0 += gemmBlock {
				jMax := min(j0+gemmBlock, k)
				for i := i0; i < iMax; i++ {
					ar := a.Row(i)
					or := out.Row(i)
					for l := l0; l < lMax; l++ {
						av := ar[l]
						if av == 0 {
							continue
						}
						br := b.Row(l)
						for j := j0; j < jMax; j++ {
							or[j] += av * br[j]
						}
					}
				}
			}
		}
	}
	return out
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

// GemmParallel computes C = A*B with the blocked kernel fanned out
// across the real machine's cores. It is the oracle-side counterpart
// used by the experiment harness for large reference products; the
// simulated baselines charge virtual time separately.
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
		return Gemm(a, b)
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
			av := a.View(r0, 0, r1-r0, a.Cols)
			res := Gemm(av, b)
			for r := 0; r < res.Rows; r++ {
				copy(out.Row(r0+r), res.Row(r))
			}
		}(r0, r1)
	}
	wg.Wait()
	return out
}
