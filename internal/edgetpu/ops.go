// Package edgetpu is the functional + timed simulator of a Google
// Edge TPU as characterized in paper section 3: a matrix processor
// with a 128x128x8-bit matrix unit, 8 MB of on-chip data memory, no
// instruction cache (the host issues CISC instructions over PCIe),
// and the eleven operators of Table 1.
//
// Functional semantics are bit-exact int8 arithmetic with 32-bit
// accumulators, so quantization error measured by the experiments is
// real, not modelled. Latency is charged separately through the
// timing package's calibrated cost model.
//
// The entry points below run the blocked kernels of ops_fast.go;
// ops_ref.go keeps the naive reference implementations that define
// the semantics, and equiv_test.go pins the two bit-identical.
// Output matrices come from the tensor recycler — callers that fully
// consume a result should hand it back via tensor.Put (dropping it is
// always safe, see tensor/pool.go).
package edgetpu

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D performs the Edge TPU conv2D instruction (Equation 9 with
// the optional striding of Figure 5): for each output channel kernel
// K and each stride-aligned window anchored at (i*sr, j*sc),
//
//	out[i][j][ch] = sum_{p,q} in[i*sr+p][j*sc+q] * K[p][q]
//
// with zero padding past the input's bottom/right edges, matching the
// paper's observation that conv2D "can produce a result matrix that
// has the same size as the non-kernel input" when unstrided. Results
// are exact 32-bit accumulations; one (pooled) output matrix is
// returned per kernel (output channel).
func Conv2D(in *tensor.MatrixI8, kernels []*tensor.MatrixI8, strideR, strideC int) []*tensor.MatrixI32 {
	if strideR <= 0 {
		strideR = 1
	}
	if strideC <= 0 {
		strideC = 1
	}
	outR := (in.Rows + strideR - 1) / strideR
	outC := (in.Cols + strideC - 1) / strideC
	outs := make([]*tensor.MatrixI32, len(kernels))
	if len(kernels) == 0 {
		return outs
	}

	switch {
	case strideR == 1 && strideC == 1:
		// Stencil fast path: row-axpy sweeps (needs zeroed output).
		for ch, k := range kernels {
			outs[ch] = tensor.Get[int32](outR, outC)
			conv2DStride1(in, k, outs[ch])
		}
	default:
		for ch, k := range kernels {
			outs[ch] = tensor.GetForOverwrite[int32](outR, outC)
			conv2DGeneral(in, k, outs[ch], strideR, strideC)
		}
	}
	return outs
}

// FullyConnected performs the Edge TPU FullyConnected instruction:
// the input vector multiplies a weight matrix (Table 1), producing
// one 32-bit accumulator per weight row.
func FullyConnected(weights *tensor.MatrixI8, vec []int8) []int32 {
	out := make([]int32, weights.Rows)
	FullyConnectedInto(out, weights, vec)
	return out
}

// FullyConnectedInto is FullyConnected writing into a caller-supplied
// accumulator slice of length weights.Rows — the allocation-free form
// the runtime's steady-state streams use with pooled buffers.
func FullyConnectedInto(dst []int32, weights *tensor.MatrixI8, vec []int8) {
	if len(vec) != weights.Cols {
		panic(fmt.Sprintf("edgetpu: FullyConnected vector length %d != weight cols %d", len(vec), weights.Cols))
	}
	if len(dst) != weights.Rows {
		panic(fmt.Sprintf("edgetpu: FullyConnected dst length %d != weight rows %d", len(dst), weights.Rows))
	}
	fullyConnectedInto(dst, weights, vec)
}

// Add performs pair-wise addition on two matrices with wide results.
func Add(a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	return pairwise(pairAdd, a, b)
}

// Sub performs pair-wise subtraction on two matrices with wide results.
func Sub(a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	return pairwise(pairSub, a, b)
}

// Mul performs pair-wise multiplication on two matrices with wide results.
func Mul(a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	return pairwise(pairMul, a, b)
}

// Pairwise op selector: one monomorphic loop with a per-row switch
// keeps the inner loops free of indirect calls.
const (
	pairAdd = iota
	pairSub
	pairMul
)

// pairwise runs one elementwise slab into a pooled output.
func pairwise(op int, a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	checkPairwise(a, b)
	out := tensor.GetForOverwrite[int32](a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		ra, rb, ro := a.Row(r), b.Row(r), out.Row(r)
		rb, ro = rb[:len(ra)], ro[:len(ra)]
		switch op {
		case pairAdd:
			for i, v := range ra {
				ro[i] = int32(v) + int32(rb[i])
			}
		case pairSub:
			for i, v := range ra {
				ro[i] = int32(v) - int32(rb[i])
			}
		default:
			for i, v := range ra {
				ro[i] = int32(v) * int32(rb[i])
			}
		}
	}
	return out
}

func checkPairwise(a, b *tensor.MatrixI8) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("edgetpu: pairwise shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Crop removes all elements outside the given sub-matrix and returns
// the sub-matrix (Table 1): one row-copy pass straight into a pooled
// destination (the former View().Clone() walked the target twice —
// once zeroing, once copying).
func Crop(in *tensor.MatrixI8, r0, c0, rows, cols int) *tensor.MatrixI8 {
	v := in.View(r0, c0, rows, cols) // bounds check; no copy
	out := tensor.GetForOverwrite[int8](rows, cols)
	for r := 0; r < rows; r++ {
		copy(out.Row(r), v.Row(r))
	}
	return out
}

// Ext pads a matrix to the target dimensionality and returns the
// padded (pooled) matrix (Table 1).
func Ext(in *tensor.MatrixI8, rows, cols int) *tensor.MatrixI8 {
	if rows < in.Rows || cols < in.Cols {
		panic(fmt.Sprintf("tensor: Pad target %dx%d smaller than %dx%d", rows, cols, in.Rows, in.Cols))
	}
	out := tensor.Get[int8](rows, cols) // zeroed: the padding
	for r := 0; r < in.Rows; r++ {
		copy(out.Row(r)[:in.Cols], in.Row(r))
	}
	return out
}

// MeanSum returns the exact element sum and count for the mean
// instruction (Table 1). The device reports the average; GPTPU's
// CPU-side aggregation recombines tile sums so it keeps the wide
// numerator (paper section 6.2.1), which this API exposes directly.
// Multi-lane sums measured no faster than this plain loop, so both
// kernel tables bind it.
func MeanSum(in *tensor.MatrixI8) (sum int64, count int) {
	for r := 0; r < in.Rows; r++ {
		for _, v := range in.Row(r) {
			sum += int64(v)
		}
	}
	return sum, in.Elems()
}

// MaxVal finds the maximum value within a matrix (Table 1). Multi-lane
// variants measured no faster than this plain scan (the compare-move
// chain retires one element per cycle either way), so both kernel
// tables bind it.
func MaxVal(in *tensor.MatrixI8) int8 {
	if in.Elems() == 0 {
		panic("edgetpu: max of empty matrix")
	}
	best := in.At(0, 0)
	for r := 0; r < in.Rows; r++ {
		for _, v := range in.Row(r) {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// TanhLUT applies the tanh activation element-wise via the device's
// fixed-point lookup-table semantics: inputs are dequantized with
// inScale, tanh is applied, and outputs are requantized with scale
// QMax (tanh's range is [-1, 1]). The 256-entry LUT is cached by
// scale (tanhTableFor), so steady-state tiles pay only the table
// walk.
func TanhLUT(in *tensor.MatrixI8, inScale float32) *tensor.MatrixI8 {
	lut := tanhTableFor(inScale)
	out := tensor.GetForOverwrite[int8](in.Rows, in.Cols)
	for r := 0; r < in.Rows; r++ {
		src, dst := in.Row(r), out.Row(r)
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] = lut[uint8(v)]
		}
	}
	return out
}

// ReLU leaves only non-negative values on a matrix (Table 1's
// description of ReLu). v >> 7 is all ones for a negative int8 and zero
// otherwise, so v &^ (v >> 7) clears exactly the negative values: every
// element is stored, with no data-dependent branch, and the output
// needs no zeroing pass.
func ReLU(in *tensor.MatrixI8) *tensor.MatrixI8 {
	out := tensor.GetForOverwrite[int8](in.Rows, in.Cols)
	for r := 0; r < in.Rows; r++ {
		src, dst := in.Row(r), out.Row(r)
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] = v &^ (v >> 7)
		}
	}
	return out
}
