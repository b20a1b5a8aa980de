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
//
// A depth block where the A row's codes and the B column's codes are
// all non-negative has only non-negative products, so its saturating
// running sum is exactly min(sum, 32767). Rows go in pairs: where both
// rows and the column are non-negative in a block, one exact dot
// product over packed pairs of codes yields both sums. Every other
// block runs the serial saturating loop, whose order of additions is
// the semantics.
func Int8Gemm(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("blas: Int8Gemm inner dimensions %d vs %d", a.Cols, b.Rows))
	}
	pa, pb := quant.ParamsFor(a), quant.ParamsFor(b)
	qa := quant.QuantizeWith(a, pa)
	qbt := quant.QuantizeWith(b, pb).Transpose() // column j of B is row j

	m, n, k := a.Rows, a.Cols, b.Cols
	blocks := (n + acc16Depth - 1) / acc16Depth
	colPos := make([]bool, k*blocks)
	for j := 0; j < k; j++ {
		nonNegBlocks(colPos[j*blocks:(j+1)*blocks], qbt.Row(j))
	}
	pairPos := make([]bool, blocks)
	pair := make([]uint64, n)
	zeros := make([]int8, n) // the partner of an odd last row
	out := tensor.New(m, k)
	inv := 1 / (float64(pa.Scale) * float64(pb.Scale))
	for i := 0; i < m; i += 2 {
		ra0, ra1 := qa.Row(i), zeros
		if i+1 < m {
			ra1 = qa.Row(i + 1)
		}
		nonNegBlocks(pairPos, ra0, ra1)
		for l := range pair {
			pair[l] = uint64(uint8(ra0[l])) | uint64(uint8(ra1[l]))<<32
		}
		for j := 0; j < k; j++ {
			rb := qbt.Row(j)
			cp := colPos[j*blocks : (j+1)*blocks]
			var w0, w1 int32
			for blk, pos := range pairPos {
				l0, l1 := blk*acc16Depth, min((blk+1)*acc16Depth, n)
				if pos && cp[blk] {
					s0, s1 := pairDot(pair[l0:l1], rb[l0:l1])
					w0 += min(s0, 32767)
					w1 += min(s1, 32767)
				} else {
					w0 += int32(satDotI16(ra0[l0:l1], rb[l0:l1]))
					w1 += int32(satDotI16(ra1[l0:l1], rb[l0:l1]))
				}
			}
			out.Set(i, j, float32(float64(w0)*inv))
			if i+1 < m {
				out.Set(i+1, j, float32(float64(w1)*inv))
			}
		}
	}
	return out
}

// nonNegBlocks sets pos[blk] to whether every code in depth block blk
// of every row is non-negative.
func nonNegBlocks(pos []bool, rows ...[]int8) {
	for blk := range pos {
		l0 := blk * acc16Depth
		neg := int8(0)
		for _, row := range rows {
			for _, x := range row[l0:min(l0+acc16Depth, len(row))] {
				neg |= x
			}
		}
		pos[blk] = neg >= 0
	}
}

// pairDot returns the exact sums of x0[l]*xb[l] and x1[l]*xb[l] where
// pair[l] packs the non-negative codes x0[l] and x1[l] into its low
// and high 32 bits and xb's codes are non-negative: one multiply
// yields both products. Over a block of at most acc16Depth = 256
// products of at most 127*127 the low sum stays below 2^22, so it
// never carries into the high half.
func pairDot(pair []uint64, xb []int8) (s0, s1 int32) {
	var a0, a1 uint64
	for len(pair) >= 2 && len(xb) >= 2 {
		p, b := pair[:2:2], xb[:2:2]
		a0 += p[0] * uint64(b[0])
		a1 += p[1] * uint64(b[1])
		pair, xb = pair[2:], xb[2:]
	}
	if len(pair) > 0 && len(xb) > 0 {
		a0 += pair[0] * uint64(xb[0])
	}
	sum := a0 + a1
	return int32(uint32(sum)), int32(sum >> 32)
}

// satDotI16 accumulates xa[l]*xb[l] in ascending l in a saturating
// int16 register, the VPMADDUBSW-style behaviour of one depth block.
func satDotI16(xa, xb []int8) int16 {
	xb = xb[:len(xa)]
	var acc int16
	for l, x := range xa {
		acc = satAddI16(acc, int16(x)*int16(xb[l]))
	}
	return acc
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
