package main

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// checkSeed generates every workload's fixed check set: inputs that do
// not depend on --seed, so result_err_pct repeats exactly on every run
// of a commit and any drift is a change of the arithmetic.
const checkSeed = 1

// uniform01 draws a rows x cols matrix of values in [0, 1). Every
// operand of the GEMM and served workloads is positive, so no exact
// result (a served Mean least of all) sits near zero, where a relative
// error measures the reference, not the program.
func uniform01(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	return tensor.RandUniform(rng, rows, cols, 0, 1)
}

// balancedPlan returns a request sequence of about length entries over
// n templates in which every template occurs equally often: whole
// shuffled rounds of all n. Seeds change the order requests come in,
// not the composition of the work.
func balancedPlan(rng *rand.Rand, n, length int) []int {
	var plan []int
	for len(plan) < length {
		plan = append(plan, rng.Perm(n)...)
	}
	return plan
}

// FNV-1a parameters, applied per float32 word rather than per byte: a
// quarter of the multiplies for the same "did every bit repeat" answer.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// checksum hashes a matrix's shape and element bits.
func checksum(m *tensor.Matrix) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(m.Rows)) * fnvPrime
	h = (h ^ uint64(m.Cols)) * fnvPrime
	for r := 0; r < m.Rows; r++ {
		for _, x := range m.Row(r) {
			h = (h ^ uint64(math.Float32bits(x))) * fnvPrime
		}
	}
	return h
}

// checksumAll folds several matrices into one hash.
func checksumAll(ms ...*tensor.Matrix) uint64 {
	h := uint64(fnvOffset)
	for _, m := range ms {
		h = (h ^ checksum(m)) * fnvPrime
	}
	return h
}

// errPct is the error of got against the float32 reference: RMS error
// over RMS reference magnitude, in percent (the paper's Table 4(b)
// RMSE). MAPE, Table 4(a), is not used for checks: on results with
// elements near zero (deep out-of-the-money options, eliminated
// sub-diagonals) it measures the reference — 87-94 % on Black-Scholes
// and 14-30 % on LUD across seeds at RMSE 0.17 % and 1.4 %.
func errPct(want, got *tensor.Matrix) float64 { return 100 * tensor.RMSE(want, got) }

// errPctAll is the mean errPct over several result matrices.
func errPctAll(want, got []*tensor.Matrix) float64 {
	var sum float64
	for i := range want {
		sum += errPct(want[i], got[i])
	}
	return sum / float64(len(want))
}

func vecMatrix(v []float32) *tensor.Matrix { return tensor.FromSlice(1, len(v), v) }

// addRef, convRef and meanRef are the float references of the served
// per-op arms (GEMM uses blas.Gemm).
func addRef(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		ar, br, or := a.Row(r), b.Row(r), out.Row(r)
		for i := range ar {
			or[i] = ar[i] + br[i]
		}
	}
	return out
}

// convRef is Op.Conv2D's semantics in float: stride 1, the kernel
// anchored at each element, zero padding past the bottom/right edges.
func convRef(a, k *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			var acc float64
			for p := 0; p < k.Rows && i+p < a.Rows; p++ {
				for q := 0; q < k.Cols && j+q < a.Cols; q++ {
					acc += float64(a.At(i+p, j+q)) * float64(k.At(p, q))
				}
			}
			out.Set(i, j, float32(acc))
		}
	}
	return out
}

func meanRef(a *tensor.Matrix) *tensor.Matrix {
	var sum float64
	for r := 0; r < a.Rows; r++ {
		for _, x := range a.Row(r) {
			sum += float64(x)
		}
	}
	return tensor.FromSlice(1, 1, []float32{float32(sum / float64(a.Elems()))})
}
