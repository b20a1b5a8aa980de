package edgetpu

import (
	"fmt"
	"math"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Reference kernels: the original, deliberately naive triple-loop
// implementations of the Table 1 instructions. They define the
// device's functional semantics — exact int8 operands with int32/int64
// accumulation — and serve two purposes:
//
//   - Oracle: the randomized equivalence suite (equiv_test.go) and the
//     Conv2D fuzz target pin the optimized kernels in ops.go/
//     ops_fast.go bit-identical to these, so every optimization is
//     checked against the executable specification rather than against
//     itself.
//   - Baseline: the kernel benchmark harness (bench_kernels_test.go,
//     the `kernels` experiment) reports naive-vs-optimized throughput
//     from the same binary.
//
// Do not optimize these. Clarity is the point. Mean and max have no
// twin: one plain loop each (MeanSum, MaxVal in ops.go) serves both
// kernel tables.

// refConv2D is the reference Edge TPU conv2D instruction (Equation 9
// with the optional striding of Figure 5): for each output channel
// kernel K and each stride-aligned window anchored at (i*sr, j*sc),
//
//	out[i][j][ch] = sum_{p,q} in[i*sr+p][j*sc+q] * K[p][q]
//
// with zero padding past the input's bottom/right edges. Results are
// exact 32-bit accumulations; one output matrix per kernel.
func refConv2D(in *tensor.MatrixI8, kernels []*tensor.MatrixI8, strideR, strideC int) []*tensor.MatrixI32 {
	if strideR <= 0 {
		strideR = 1
	}
	if strideC <= 0 {
		strideC = 1
	}
	outs := make([]*tensor.MatrixI32, len(kernels))
	outR := (in.Rows + strideR - 1) / strideR
	outC := (in.Cols + strideC - 1) / strideC
	for ch, k := range kernels {
		out := tensor.NewI32(outR, outC)
		for i := 0; i < outR; i++ {
			for j := 0; j < outC; j++ {
				var acc int32
				baseR, baseC := i*strideR, j*strideC
				for p := 0; p < k.Rows; p++ {
					r := baseR + p
					if r >= in.Rows {
						break
					}
					inRow := in.Row(r)
					kRow := k.Row(p)
					maxQ := k.Cols
					if baseC+maxQ > in.Cols {
						maxQ = in.Cols - baseC
					}
					for q := 0; q < maxQ; q++ {
						acc += int32(inRow[baseC+q]) * int32(kRow[q])
					}
				}
				out.Set(i, j, acc)
			}
		}
		outs[ch] = out
	}
	return outs
}

// refConv2DGemm is the reference GEMM-as-conv2D kernel: every row of
// wins is one flattened input window, every row of kers one flattened
// kernel, and out[i][j] is the exact widened dot product of window i
// with kernel j — the semantics the SWAR-packed Conv2DGemm fast path
// must reproduce bit for bit.
func refConv2DGemm(wins, kers *tensor.MatrixI8) *tensor.MatrixI32 {
	if wins.Cols != kers.Cols {
		panic("edgetpu: Conv2DGemm operand width mismatch")
	}
	out := tensor.NewI32(wins.Rows, kers.Rows)
	for i := 0; i < wins.Rows; i++ {
		w := wins.Row(i)
		oRow := out.Row(i)
		for j := 0; j < kers.Rows; j++ {
			k := kers.Row(j)
			var acc int64
			for t := range w {
				acc += int64(w[t]) * int64(k[t])
			}
			oRow[j] = int32(acc)
		}
	}
	return out
}

// refFullyConnectedInto is refFullyConnected writing into a
// caller-supplied accumulator slice, matching the allocation-free
// entry point the runtime streams use.
func refFullyConnectedInto(dst []int32, weights *tensor.MatrixI8, vec []int8) {
	if len(vec) != weights.Cols {
		panic(fmt.Sprintf("edgetpu: FullyConnected vector length %d != weight cols %d", len(vec), weights.Cols))
	}
	if len(dst) != weights.Rows {
		panic(fmt.Sprintf("edgetpu: FullyConnected dst length %d != weight rows %d", len(dst), weights.Rows))
	}
	copy(dst, refFullyConnected(weights, vec))
}

// refFullyConnected is the reference FullyConnected instruction: the
// input vector multiplies a weight matrix, one 32-bit accumulator per
// weight row.
func refFullyConnected(weights *tensor.MatrixI8, vec []int8) []int32 {
	if len(vec) != weights.Cols {
		panic(fmt.Sprintf("edgetpu: FullyConnected vector length %d != weight cols %d", len(vec), weights.Cols))
	}
	out := make([]int32, weights.Rows)
	for r := 0; r < weights.Rows; r++ {
		row := weights.Row(r)
		var acc int32
		for c, w := range row {
			acc += int32(w) * int32(vec[c])
		}
		out[r] = acc
	}
	return out
}

// refAdd is the reference pair-wise addition with wide results.
func refAdd(a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	return refPairwise(a, b, func(x, y int32) int32 { return x + y })
}

// refSub is the reference pair-wise subtraction with wide results.
func refSub(a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	return refPairwise(a, b, func(x, y int32) int32 { return x - y })
}

// refMul is the reference pair-wise multiplication with wide results.
func refMul(a, b *tensor.MatrixI8) *tensor.MatrixI32 {
	return refPairwise(a, b, func(x, y int32) int32 { return x * y })
}

// refPairwise is the closure-dispatched pairwise loop the optimized
// kernels replace with monomorphic per-op loops.
func refPairwise(a, b *tensor.MatrixI8, f func(x, y int32) int32) *tensor.MatrixI32 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("edgetpu: pairwise shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := tensor.NewI32(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		ra, rb, ro := a.Row(r), b.Row(r), out.Row(r)
		for i := range ra {
			ro[i] = f(int32(ra[i]), int32(rb[i]))
		}
	}
	return out
}

// refCrop is the reference crop instruction: a sub-matrix copy via the
// generic view-then-clone walk.
func refCrop(in *tensor.MatrixI8, r0, c0, rows, cols int) *tensor.MatrixI8 {
	return in.View(r0, c0, rows, cols).Clone()
}

// refExt is the reference ext instruction: zero-pad to the target
// dimensionality.
func refExt(in *tensor.MatrixI8, rows, cols int) *tensor.MatrixI8 {
	return in.Pad(rows, cols)
}

// refTanhLUT is the reference tanh instruction, rebuilding the
// 256-entry lookup table on every call.
func refTanhLUT(in *tensor.MatrixI8, inScale float32) *tensor.MatrixI8 {
	out := tensor.NewI8(in.Rows, in.Cols)
	var lut [256]int8
	for i := 0; i < 256; i++ {
		v := float64(int8(i)) / float64(inScale)
		lut[i] = quant.SaturateI8(int32(math.RoundToEven(math.Tanh(v) * quant.QMax)))
	}
	for r := 0; r < in.Rows; r++ {
		src, dst := in.Row(r), out.Row(r)
		for i, v := range src {
			dst[i] = lut[uint8(v)]
		}
	}
	return out
}

// refReLU is the reference ReLU instruction.
func refReLU(in *tensor.MatrixI8) *tensor.MatrixI8 {
	out := tensor.NewI8(in.Rows, in.Cols)
	for r := 0; r < in.Rows; r++ {
		src, dst := in.Row(r), out.Row(r)
		for i, v := range src {
			if v > 0 {
				dst[i] = v
			}
		}
	}
	return out
}
