package blas

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// acc16Depth is the depth-block length over which the FBGEMM-style
// kernel accumulates uint8 x int8 products in a saturating 16-bit
// register before spilling to 32 bits. FBGEMM's AVX2 "acc16" kernels
// use VPMADDUBSW, whose int16 partial sums saturate silently; the
// paper observes the consequence directly: "FB's GEMM targets at
// error-tolerant ML applications but does not handle overflow cases"
// (section 9.2), with RMSE exploding once the maximum input value
// exceeds 16 (Table 5). With a 256-deep block, uniform values up to 16
// keep block sums (mean 256*16*16 = 16K) inside int16, while values up
// to 32 push the mean block sum to 64K — past saturation — which is
// exactly the Table 5 crossover.
const acc16Depth = 256

// Int8Gemm computes C = A*B with the FBGEMM-style low-precision
// algorithm: inputs quantized to 8 bits (losslessly for the small
// positive integers of the Table 5 workload), products accumulated in
// saturating int16 over depth blocks, block results widened into
// int32. The returned matrix is the dequantized float result,
// including whatever saturation damage occurred.
func Int8Gemm(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("blas: Int8Gemm inner dimensions %d vs %d", a.Cols, b.Rows))
	}
	pa, pb := quant.ParamsFor(a), quant.ParamsFor(b)
	qa := quant.QuantizeWith(a, pa)
	qbt := quant.QuantizeWith(b, pb).Transpose() // column j of B is row j

	m, n, k := a.Rows, a.Cols, b.Cols
	out := tensor.New(m, k)
	inv := 1 / (float64(pa.Scale) * float64(pb.Scale))
	for i := 0; i < m; i++ {
		ra := qa.Row(i)
		for j := 0; j < k; j++ {
			rb := qbt.Row(j)
			var wide int32
			for l0 := 0; l0 < n; l0 += acc16Depth {
				xa := ra[l0:min(l0+acc16Depth, n)]
				xb := rb[l0 : l0+len(xa)]
				var acc int16
				for l, x := range xa {
					acc = satAddI16(acc, int16(x)*int16(xb[l]))
				}
				wide += int32(acc)
			}
			out.Set(i, j, float32(float64(wide)*inv))
		}
	}
	return out
}

// satAddI16 adds with int16 saturation, the silent clamping of
// VPMADDUBSW-style SIMD accumulation.
func satAddI16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}
