package core

import (
	"repro/internal/quant"
	"repro/internal/tensor"
)

// The dual-portion operators realize the technique the paper's section
// 10 highlights as a GPTPU capability: "GPTPU can achieve the desired
// level of precision by iteratively computing on different portions of
// raw input numbers." Each operand splits into a coarse portion that
// quantizes to int8 exactly and a fine residual 254x smaller; three
// device passes reconstruct the product with ~16-bit effective input
// precision (the lo*lo term, ~1/254^2 relative, is dropped):
//
//	A*B ~ A_hi*B_hi + A_hi*B_lo + A_lo*B_hi
//
// The cost is three device passes plus a host combination pass — the
// explicit accuracy/latency trade the framework exposes.

// MatMulPrecise is the high-precision GEMM library function: tpuGemm
// over the dual-portion split of both operands.
func (s *Stream) MatMulPrecise(a, b *Buffer) *tensor.Matrix {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a, b) {
		return nil
	}
	defer s.opTimer("tpuGemmPrecise")()
	checkShapes("tpuGemm-precise", a.Cols() == b.Rows(),
		"inner dimensions %d vs %d", a.Cols(), b.Rows())
	c := s.c

	aHi, aLo := c.portions(a)
	bHi, bLo := c.portions(b)

	// The sum accumulates into the first product; the other two go back
	// to the context's free list.
	out := s.MatMul(aHi, bHi)
	hl := s.MatMul(aHi, bLo)
	lh := s.MatMul(aLo, bHi)
	if s.err != nil {
		return nil
	}
	if c.Functional() {
		for i := range out.Data {
			out.Data[i] = out.Data[i] + hl.Data[i] + lh.Data[i]
		}
		c.Release(hl)
		c.Release(lh)
	}
	// Host combination of the three wide partial products.
	end := c.chargeHost(s.now, c.params.AggTime(2*int64(out.Elems())))
	s.advance(end)
	return out
}

// MatVecPrecise is MatVec at ~16-bit effective precision: three
// FullyConnected passes over the dual-portion split of the matrix and
// of the vector. The matrix's split is built once and kept on the
// buffer, so an iterative solver re-using its system matrix splits it
// once and finds both portions resident on the devices; the vector
// splits on every call. Like an application combining the portions
// itself, it charges the split pass and the host combination on the
// context's host core.
func (s *Stream) MatVecPrecise(a *Buffer, x []float32) []float32 {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a) {
		return nil
	}
	defer s.opTimer("matVecPrecise")()
	checkShapes("FullyConnected-precise", len(x) == a.Cols(),
		"vector length %d != matrix cols %d", len(x), a.Cols())
	c := s.c

	hi, lo := c.portions(a)
	var xHi, xLo quant.Portion // no codes in timing-only mode
	if c.Functional() {
		v := tensor.FromSlice(1, len(x), x)
		xHi, xLo = quant.SplitQuantize(v, quant.ParamsFor(v))
	}
	// The sum accumulates into the first product; the other two go back
	// to the context's free list.
	out := s.matVec(hi, xHi, len(x))
	hl := s.matVec(hi, xLo, len(x))
	lh := s.matVec(lo, xHi, len(x))
	if s.err != nil {
		return nil
	}
	if c.Functional() {
		for i := range out {
			out[i] = out[i] + hl[i] + lh[i]
		}
		c.Release(tensor.FromSlice(1, len(hl), hl))
		c.Release(tensor.FromSlice(1, len(lh), lh))
	}
	c.ChargeHostWork(c.params.AggTime(int64(a.Rows())))
	return out
}

// portions returns b's dual-portion split, building it — and charging
// the host split pass — on first use. Each portion is a buffer of its
// own (its own key, so the devices track its copy apart) whose int8
// form and calibration quant.SplitQuantize built straight from b's
// data: neither portion ever exists in float32, and their M is a
// shape-only descriptor. Their first use charges the Tensorizer's
// quantize-and-encode pass like any buffer's. Portions feed only
// FullyConnected and GEMM passes, which download wide results and
// never requantize, so their max|code| is not tracked.
func (c *Context) portions(b *Buffer) (hi, lo *Buffer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.hi != nil {
		return b.hi, b.lo
	}
	c.ChargeHostWork(c.params.QuantTime(int64(b.M.Elems())))
	hi = &Buffer{M: tensor.ShapeOnly(b.M.Rows, b.M.Cols), key: c.nextKey(), calib: quant.Params{Scale: 1}}
	lo = &Buffer{M: tensor.ShapeOnly(b.M.Rows, b.M.Cols), key: c.nextKey(), calib: quant.Params{Scale: 1}}
	if c.Functional() {
		h, l := quant.SplitQuantize(b.M, b.calib)
		hi.calib, hi.q = h.P, h.Q
		lo.calib, lo.q = l.P, l.Q
	}
	b.hi, b.lo = hi, lo
	return hi, lo
}
