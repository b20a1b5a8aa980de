package edgetpu

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Blocked inner loops for the hot instructions. Everything in this
// file is bit-identical to the reference kernels in ops_ref.go —
// int32/int64 addition is exact and commutative, so splitting an
// accumulation across unrolled lanes cannot change the result — and
// the equivalence suite in equiv_test.go pins that property under
// randomized shapes, strides and edge padding.
//
// The techniques are the standard BLAS-style ones, scaled to int8:
//
//   - dot products over contiguous []int8 rows with 4 independent
//     int32 accumulators, 8-wide unrolled, so the CPU pipelines the
//     multiply-adds instead of serializing on one register;
//   - operand reuse across weight rows: dot4I8 streams one input
//     vector against four FullyConnected rows per pass, quartering
//     input loads (the register-tiling step of a blocked GEMM);
//   - a bias-packed, row-interleaved micro-kernel for the Conv2DGemm
//     panel form: three window rows share one 64-bit word in 21-bit
//     lanes, w = x0 + x1·2²¹ + x2·2⁴² with every x biased to [0, 255],
//     so one integer multiply by a biased kernel byte c is three exact
//     multiply-adds, x0c + x1c·2²¹ + x2c·2⁴² (mac4, laneDot4) — a third
//     of the scalar loop's multiplier-port bound. A lane takes at most
//     32 products before it is split out: 32·255² < 2²¹, so the lanes
//     stay inside bits 0-62 and never carry into each other;
//   - its one-signed twin, taken when no code of either panel is
//     negative (quantized [0, 1) data): four window rows share a word
//     in unbiased 16-bit lanes, four multiply-adds per integer multiply
//     (mac2U), split every four words since 4·127² < 2¹⁶;
//   - a stride-1 row-axpy path for stencil convolutions, turning the
//     per-output gather into sequential accumulate sweeps, with all
//     nine taps of the common 3x3 stencil fused into one pass.

// dotI8 returns the int32 dot product of a and b (length of a; b must
// be at least as long). Four accumulator lanes, 8-wide unrolled.
func dotI8(a, b []int8) int32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += int32(a[i])*int32(b[i]) + int32(a[i+4])*int32(b[i+4])
		s1 += int32(a[i+1])*int32(b[i+1]) + int32(a[i+5])*int32(b[i+5])
		s2 += int32(a[i+2])*int32(b[i+2]) + int32(a[i+6])*int32(b[i+6])
		s3 += int32(a[i+3])*int32(b[i+3]) + int32(a[i+7])*int32(b[i+7])
	}
	for ; i < n; i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}

// dot4I8 returns the dot products of w against four operands in one
// pass, loading each element of w once.
func dot4I8(w, k0, k1, k2, k3 []int8) (s0, s1, s2, s3 int32) {
	n := len(w)
	k0, k1, k2, k3 = k0[:n], k1[:n], k2[:n], k3[:n]
	for q, v := range w {
		vv := int32(v)
		s0 += vv * int32(k0[q])
		s1 += vv * int32(k1[q])
		s2 += vv * int32(k2[q])
		s3 += vv * int32(k3[q])
	}
	return
}

// axpyI8 accumulates acc[j] += v * src[j]; src must be at least as
// long as acc. 4-wide unrolled: the iterations are independent, so
// unrolling lets the multiply-adds pipeline instead of waiting on the
// loop counter.
func axpyI8(acc []int32, v int32, src []int8) {
	n := len(acc)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		acc[i] += v * int32(src[i])
		acc[i+1] += v * int32(src[i+1])
		acc[i+2] += v * int32(src[i+2])
		acc[i+3] += v * int32(src[i+3])
	}
	for ; i < n; i++ {
		acc[i] += v * int32(src[i])
	}
}

// conv3x3RowI8 accumulates one interior output row of a 3x3 stencil
// in a single pass: all nine taps fuse, so the accumulator loads and
// stores once per element instead of once per tap. The three input
// rows must extend two elements past acc.
func conv3x3RowI8(acc []int32, r0, r1, r2 []int8, k0, k1, k2 []int8) {
	n := len(acc)
	r0, r1, r2 = r0[:n+2:n+2], r1[:n+2:n+2], r2[:n+2:n+2]
	a0, a1, a2 := int32(k0[0]), int32(k0[1]), int32(k0[2])
	b0, b1, b2 := int32(k1[0]), int32(k1[1]), int32(k1[2])
	c0, c1, c2 := int32(k2[0]), int32(k2[1]), int32(k2[2])
	for j := 0; j < n; j++ {
		acc[j] += a0*int32(r0[j]) + a1*int32(r0[j+1]) + a2*int32(r0[j+2]) +
			b0*int32(r1[j]) + b1*int32(r1[j+1]) + b2*int32(r1[j+2]) +
			c0*int32(r2[j]) + c1*int32(r2[j+1]) + c2*int32(r2[j+2])
	}
}

// conv2DStride1 computes one channel of an unstrided conv2D by
// row-axpy sweeps: for every kernel element (p, q), the contiguous run
// in[i+p][q:] scaled by k[p][q] accumulates into output row i. The
// common 3x3 stencil runs all nine taps fused per interior output row
// (conv3x3RowI8) with scalar right-edge tails; other shapes and the
// bottom edge fall back to one axpy per tap. out must arrive zeroed
// (tensor.Get guarantees it).
func conv2DStride1(in, k *tensor.MatrixI8, out *tensor.MatrixI32) {
	outC := out.Cols
	three := k.Rows == 3 && k.Cols == 3 && in.Cols >= 3
	lim2 := in.Cols - 2
	if lim2 > outC {
		lim2 = outC
	}
	for i := 0; i < out.Rows; i++ {
		accRow := out.Row(i)
		pMax := k.Rows
		if i+pMax > in.Rows {
			pMax = in.Rows - i
		}
		if three && pMax == 3 {
			conv3x3RowI8(accRow[:lim2], in.Row(i), in.Row(i+1), in.Row(i+2),
				k.Row(0), k.Row(1), k.Row(2))
			// Right edge: only taps q < 2 can reach past lim2 (the
			// q=2 tap's limit is exactly lim2).
			for p := 0; p < 3; p++ {
				inRow := in.Row(i + p)
				kRow := k.Row(p)
				for q := 0; q < 2; q++ {
					lim := in.Cols - q
					if lim > outC {
						lim = outC
					}
					v := int32(kRow[q])
					for j := lim2; j < lim; j++ {
						accRow[j] += v * int32(inRow[j+q])
					}
				}
			}
			continue
		}
		for p := 0; p < pMax; p++ {
			inRow := in.Row(i + p)
			kRow := k.Row(p)
			for q, kv := range kRow {
				if q >= in.Cols {
					break
				}
				lim := in.Cols - q
				if lim > outC {
					lim = outC
				}
				axpyI8(accRow[:lim], int32(kv), inRow[q:])
			}
		}
	}
}

// conv2DGeneral computes one channel of an arbitrarily strided conv2D,
// with the innermost reduction running as contiguous row-segment dot
// products.
func conv2DGeneral(in, k *tensor.MatrixI8, out *tensor.MatrixI32, strideR, strideC int) {
	for i := 0; i < out.Rows; i++ {
		baseR := i * strideR
		pMax := k.Rows
		if baseR+pMax > in.Rows {
			pMax = in.Rows - baseR
		}
		oRow := out.Row(i)
		for j := 0; j < out.Cols; j++ {
			baseC := j * strideC
			maxQ := k.Cols
			if baseC+maxQ > in.Cols {
				maxQ = in.Cols - baseC
			}
			var acc int32
			for p := 0; p < pMax; p++ {
				acc += dotI8(in.Row(baseR + p)[baseC:baseC+maxQ], k.Row(p))
			}
			oRow[j] = acc
		}
	}
}

// gemmScratch holds the packed operand panels Conv2DGemm builds per
// call; pooled because the hot GEMM stream calls it once per
// instruction. The one-signed geometry uses pw alone.
type gemmScratch struct {
	pw []uint64 // window panel: one n-word run per group of three (biased) or four rows
	kb []uint8  // kernel panel: nch x n biased bytes, padded to whole blocks of four rows
	cw []int64  // per window row: n·2¹⁴ − 128·Σx', the bias terms it owns
	ck []int64  // per kernel row: 128·Σc'
}

var gemmScratchPool = sync.Pool{New: func() any { return new(gemmScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// The lane geometry of the packed window panel: three rows share one
// 64-bit word in 21-bit lanes (bits 0-20, 21-41, 42-62), and a lane
// holds at most laneChunk biased products before it is split out:
// 32·255² = 2 080 800 < 2²¹ = 2 097 152, so a lane never carries into
// its neighbour and bit 63 is never reached.
const (
	laneBits  = 21
	laneMask  = 1<<laneBits - 1
	laneChunk = 32
)

// packRows3 interleaves three window rows into dst after the +128 bias
// to [0, 255] (x ^ 0x80 on the raw byte): dst[t] = r0'[t] | r1'[t]<<21
// | r2'[t]<<42. It returns each row's biased sum.
func packRows3(dst []uint64, r0, r1, r2 []int8) (s0, s1, s2 int64) {
	n := len(r0)
	dst, r1, r2 = dst[:n], r1[:n], r2[:n]
	var u0, u1, u2 uint64
	for t, v := range r0 {
		x0 := uint64(uint8(v) ^ 0x80)
		x1 := uint64(uint8(r1[t]) ^ 0x80)
		x2 := uint64(uint8(r2[t]) ^ 0x80)
		u0, u1, u2 = u0+x0, u1+x1, u2+x2
		dst[t] = x0 | x1<<laneBits | x2<<(2*laneBits)
	}
	return int64(u0), int64(u1), int64(u2)
}

// biasRow stores src biased to [0, 255] into dst and returns the
// biased sum.
func biasRow(dst []uint8, src []int8) int64 {
	dst = dst[:len(src)]
	var sum uint64
	for t, v := range src {
		c := uint8(v) ^ 0x80
		dst[t] = c
		sum += uint64(c)
	}
	return int64(sum)
}

// mac4 is the GEMM micro-kernel: one chunk (at most laneChunk words) of
// a packed window run against the same chunk of four biased kernel
// rows. With w = x0 + x1·2²¹ + x2·2⁴² and a byte c, the product w·c =
// x0c + x1c·2²¹ + x2c·2⁴² is three exact multiply-adds in one integer
// multiply, accumulated shift-free; per multiply the loop issues 1.25
// loads (one word shared by four byte loads).
//
// A leaf of its own, kept out of line, so that the four accumulators,
// five pointers and the index are all it asks of the register file:
// inlined into laneDot4 the accumulators spill to the stack on amd64
// and every multiply-add pays a load and a store.
//
//go:noinline
func mac4(w []uint64, k0, k1, k2, k3 []uint8) (a0, a1, a2, a3 uint64) {
	n := len(w)
	k0, k1, k2, k3 = k0[:n], k1[:n], k2[:n], k3[:n]
	for t, x := range w {
		a0 += x * uint64(k0[t])
		a1 += x * uint64(k1[t])
		a2 += x * uint64(k2[t])
		a3 += x * uint64(k3[t])
	}
	return
}

// laneDot4 computes the twelve biased dot products of one packed
// window run (three rows) with four biased kernel rows, d[3·ch + row]:
// mac4 per chunk, then one lane split per accumulator.
func laneDot4(d *[12]uint64, pw []uint64, b0, b1, b2, b3 []uint8) {
	*d = [12]uint64{}
	n := len(pw)
	for lo := 0; lo < n; lo += laneChunk {
		hi := min(lo+laneChunk, n)
		a0, a1, a2, a3 := mac4(pw[lo:hi], b0[lo:hi], b1[lo:hi], b2[lo:hi], b3[lo:hi])
		d[0] += a0 & laneMask
		d[1] += a0 >> laneBits & laneMask
		d[2] += a0 >> (2 * laneBits)
		d[3] += a1 & laneMask
		d[4] += a1 >> laneBits & laneMask
		d[5] += a1 >> (2 * laneBits)
		d[6] += a2 & laneMask
		d[7] += a2 >> laneBits & laneMask
		d[8] += a2 >> (2 * laneBits)
		d[9] += a3 & laneMask
		d[10] += a3 >> laneBits & laneMask
		d[11] += a3 >> (2 * laneBits)
	}
}

// Conv2DGemm runs the conv2D instruction in its GEMM-as-strided-conv
// configuration without materializing per-channel kernel views: row i
// of wins is one flattened s x s window (a padded row of A), row ch of
// kers one flattened s x s kernel (a column block of B), and
//
//	out[i][ch] = dot(wins.Row(i), kers.Row(ch))
//
// — bit-identical to Conv2D(stacked, kernelViews, s, s) per channel,
// which the equivalence suite pins. The operands' signs pick the lane
// geometry: with no negative code in either panel (quantized [0, 1)
// data) four window rows share a word in unbiased 16-bit lanes
// (gemmDotU); otherwise three biased rows share it in 21-bit lanes
// (laneDot4), and exactness is restored per output element from the
// row sums the packing pass collects:
//
//	Σ x·c = Σ (x'−128)(c'−128) = Σ x'c' + (n·2¹⁴ − 128·Σx') − 128·Σc'
//
// with every term exact in int64. The result matrix is pooled; pass
// it to tensor.Put when the accumulators have been consumed.
func Conv2DGemm(wins, kers *tensor.MatrixI8) *tensor.MatrixI32 {
	if wins.Cols != kers.Cols {
		panic("edgetpu: Conv2DGemm operand width mismatch")
	}
	nw, nch, n := wins.Rows, kers.Rows, wins.Cols
	out := tensor.GetForOverwrite[int32](nw, nch)
	sc := gemmScratchPool.Get().(*gemmScratch)
	if nonNegative(kers) && packRows4(sc, wins) {
		gemmDotU(sc, kers, out)
		gemmScratchPool.Put(sc)
		return out
	}
	groups := (nw + 2) / 3
	// The kernel panel pads to whole blocks of four rows with whatever
	// bytes the scratch held: any byte keeps a lane in bound.
	sc.pw, sc.kb = grow(sc.pw, groups*n), grow(sc.kb, (nch+3)/4*4*n)
	sc.cw, sc.ck = grow(sc.cw, 3*groups), grow(sc.ck, nch)
	base := int64(n) << 14
	for g := 0; g < groups; g++ {
		// A short last group repeats its final row; those lanes are
		// computed and never stored.
		i := 3 * g
		i1, i2 := min(i+1, nw-1), min(i+2, nw-1)
		s0, s1, s2 := packRows3(sc.pw[g*n:(g+1)*n], wins.Row(i), wins.Row(i1), wins.Row(i2))
		sc.cw[i], sc.cw[i+1], sc.cw[i+2] = base-128*s0, base-128*s1, base-128*s2
	}
	for ch := 0; ch < nch; ch++ {
		sc.ck[ch] = 128 * biasRow(sc.kb[ch*n:(ch+1)*n], kers.Row(ch))
	}
	gemmDot(sc, out, n)
	gemmScratchPool.Put(sc)
	return out
}

// The one-signed lane geometry: four non-negative window rows share a
// word in unbiased 16-bit lanes, w = x0 | x1<<16 | x2<<32 | x3<<48. A
// product is at most 127² = 16129, so a lane holds four (64 516 < 2¹⁶);
// after each step of four words the odd lanes move into the 32-bit
// halves of a word of their own. A half holds 2¹⁶ steps (2¹⁶·64 516 <
// 2³²), so a dot longer than u16Chunk words runs in chunks.
const (
	u16Even  = 0x0000ffff0000ffff
	u16Chunk = 1 << 18
)

// nonNegative reports whether no code of m is negative, stopping after
// the first row that holds one.
func nonNegative(m *tensor.MatrixI8) bool {
	var or int8
	for r := 0; r < m.Rows && or >= 0; r++ {
		for _, v := range m.Row(r) {
			or |= v
		}
	}
	return or >= 0
}

// packRows4 packs wins into sc.pw in the one-signed geometry, one
// n-word run per group of four rows (a short last group repeats its
// final row), and reports false at the first group with a negative code.
func packRows4(sc *gemmScratch, wins *tensor.MatrixI8) bool {
	nw, n := wins.Rows, wins.Cols
	sc.pw = grow(sc.pw, (nw+3)/4*n)
	var or int8
	for i := 0; i < nw && or >= 0; i += 4 {
		r0, r1 := wins.Row(i), wins.Row(min(i+1, nw-1))[:n]
		r2, r3 := wins.Row(min(i+2, nw-1))[:n], wins.Row(min(i+3, nw-1))[:n]
		dst := sc.pw[i/4*n : (i/4+1)*n]
		for t, v := range r0 {
			or |= v | r1[t] | r2[t] | r3[t]
			dst[t] = uint64(v) | uint64(r1[t])<<16 | uint64(r2[t])<<32 | uint64(r3[t])<<48
		}
	}
	return or >= 0
}

// mac2U is the one-signed micro-kernel: one chunk (at most u16Chunk
// words) of two packed window runs against one kernel row, adding the
// eight dots into d[4·run + row]. A step of four words is four integer
// multiplies per run; its sum adds whole into a running total and its
// odd lanes into a second word, the even lanes being the total less the
// odd ones. One kernel row keeps every value in a register on amd64
// (four spilled the sums); out of line for the reason mac4 is.
//
//go:noinline
func mac2U(d *[8]uint64, wa, wb []uint64, k []int8) {
	n := len(wa)
	wa, wb, k = wa[:n:n], wb[:n:n], k[:n:n]
	var sa, oa, sb, ob uint64
	t := 0
	for ; t+4 <= n; t += 4 {
		c, qa, qb := k[t:t+4:t+4], wa[t:t+4:t+4], wb[t:t+4:t+4]
		x := uint64(uint8(c[0]))
		a, b := qa[0]*x, qb[0]*x
		x = uint64(uint8(c[1]))
		a, b = a+qa[1]*x, b+qb[1]*x
		x = uint64(uint8(c[2]))
		a, b = a+qa[2]*x, b+qb[2]*x
		x = uint64(uint8(c[3]))
		a, b = a+qa[3]*x, b+qb[3]*x
		sa, oa = sa+a, oa+a>>16&u16Even
		sb, ob = sb+b, ob+b>>16&u16Even
	}
	var a, b uint64 // the last partial step, at most three words
	for ; t < n; t++ {
		a += wa[t] * uint64(uint8(k[t]))
		b += wb[t] * uint64(uint8(k[t]))
	}
	for r, so := range [2][2]uint64{{sa + a, oa + a>>16&u16Even}, {sb + b, ob + b>>16&u16Even}} {
		e := so[0] - so[1]<<16
		d[4*r] += e & (1<<32 - 1)
		d[4*r+1] += so[1] & (1<<32 - 1)
		d[4*r+2] += e >> 32
		d[4*r+3] += so[1] >> 32
	}
}

// gemmDotU is the one-signed dot phase: each pair of window groups of
// sc.pw (a lone last group pairs with itself) against every kernel row
// writes output rows 4g..4g+7, clipped at the panel's end.
func gemmDotU(sc *gemmScratch, kers *tensor.MatrixI8, out *tensor.MatrixI32) {
	nw, nch, n := out.Rows, out.Cols, kers.Cols
	groups := (nw + 3) / 4
	for g := 0; g < groups; g += 2 {
		g1 := min(g+1, groups-1)
		wa, wb := sc.pw[g*n:(g+1)*n], sc.pw[g1*n:(g1+1)*n]
		for ch := 0; ch < nch; ch++ {
			k := kers.Row(ch)
			var d [8]uint64
			for lo := 0; lo < n; lo += u16Chunk {
				hi := min(lo+u16Chunk, n)
				mac2U(&d, wa[lo:hi], wb[lo:hi], k[lo:hi])
			}
			for r := 0; r < min(8, nw-4*g); r++ {
				out.Row(4*g + r)[ch] = int32(d[r])
			}
		}
	}
}

// gemmDot is the Conv2DGemm dot phase over the packed panels in sc:
// group g reads panel run g and the shared kernel panel and writes
// output rows 3g..3g+2 (clipped at the panel's end). It dominates the
// call, O(nw·nch·n/3) multiplies against the packs' O((nw+nch)·n)
// moves.
func gemmDot(sc *gemmScratch, out *tensor.MatrixI32, n int) {
	nw, nch := out.Rows, out.Cols
	for g := 0; g < (nw+2)/3; g++ {
		pw := sc.pw[g*n : (g+1)*n]
		i := 3 * g
		rows := min(3, nw-i)
		var oRow [3][]int32
		for r := 0; r < rows; r++ {
			oRow[r] = out.Row(i + r)
		}
		cw := sc.cw[i : i+3]
		var d [12]uint64
		for ch := 0; ch < nch; ch += 4 {
			kb := sc.kb[ch*n : (ch+4)*n]
			laneDot4(&d, pw, kb[:n], kb[n:2*n], kb[2*n:3*n], kb[3*n:])
			for r := 0; r < rows; r++ {
				if o := oRow[r][ch:min(ch+4, nch)]; len(o) == 4 {
					ck := sc.ck[ch : ch+4]
					o[0] = int32(int64(d[r]) + cw[r] - ck[0])
					o[1] = int32(int64(d[3+r]) + cw[r] - ck[1])
					o[2] = int32(int64(d[6+r]) + cw[r] - ck[2])
					o[3] = int32(int64(d[9+r]) + cw[r] - ck[3])
				} else {
					for c := range o {
						o[c] = int32(int64(d[3*c+r]) + cw[r] - sc.ck[ch+c])
					}
				}
			}
		}
	}
}

// fullyConnectedInto writes the FullyConnected accumulators into dst
// (length weights.Rows), streaming the input vector against four
// weight rows per pass.
func fullyConnectedInto(dst []int32, weights *tensor.MatrixI8, vec []int8) {
	r := 0
	for ; r+4 <= weights.Rows; r += 4 {
		s0, s1, s2, s3 := dot4I8(vec,
			weights.Row(r), weights.Row(r+1), weights.Row(r+2), weights.Row(r+3))
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < weights.Rows; r++ {
		dst[r] = dotI8(vec, weights.Row(r))
	}
}

// tanhTable is one realized 256-entry tanh lookup table.
type tanhTable [256]int8

// tanhCache memoizes LUTs by input-scale bits. Streams apply tanh tile
// by tile at one or two distinct scales, so rebuilding the table (256
// math.Tanh calls) per tile dominated the instruction; the cache makes
// every tile after the first a plain table walk. Capped so a
// pathological scale-per-call workload cannot grow it unboundedly.
//
// Copy-on-write: readers load one atomic pointer and index an
// immutable map — no lock, no cache-line ping-pong between the
// dispatch workers that hit the table concurrently (the old RWMutex
// read path serialized on the lock word). Writers are rare (one per
// distinct scale), take mu, and publish a fresh map; a lost race
// costs one redundant 256-entry build, never a wrong table.
var tanhCache struct {
	mu sync.Mutex // serializes writers; readers only Load p
	p  atomic.Pointer[map[uint32]*tanhTable]
}

func init() {
	m := make(map[uint32]*tanhTable)
	tanhCache.p.Store(&m)
}

const tanhCacheCap = 64

// tanhTableFor returns the LUT for inScale, building and caching it on
// first use. Safe for concurrent use by dispatch workers; the hot path
// is one atomic load plus a map read.
func tanhTableFor(inScale float32) *tanhTable {
	key := math.Float32bits(inScale)
	if t := (*tanhCache.p.Load())[key]; t != nil {
		return t
	}
	t := new(tanhTable)
	for i := 0; i < 256; i++ {
		v := float64(int8(i)) / float64(inScale)
		t[i] = quant.SaturateI8(int32(math.RoundToEven(math.Tanh(v) * quant.QMax)))
	}
	tanhCache.mu.Lock()
	cur := *tanhCache.p.Load()
	if cached := cur[key]; cached != nil {
		tanhCache.mu.Unlock()
		return cached
	}
	var next map[uint32]*tanhTable
	if len(cur) >= tanhCacheCap {
		// Cap reached: restart cold, as the map-keyed cache did.
		next = make(map[uint32]*tanhTable, 1)
	} else {
		next = make(map[uint32]*tanhTable, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
	}
	next[key] = t
	tanhCache.p.Store(&next)
	tanhCache.mu.Unlock()
	return t
}
