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

// GemmPrecise is the high-precision GEMM library function: tpuGemm
// over the dual-portion split of both operands.
func (s *Stream) GemmPrecise(a, b *Buffer) *tensor.Matrix {
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

	sa := c.portions(a)
	sb := sa // a*a is one use of a's split
	if b != a {
		sb = c.portions(b)
	}
	// The sum accumulates into the first product; the other two go back
	// to the context's free list. Each Gemm has collected its passes
	// when it returns, failed or not, so no instruction reads the codes
	// once the portions are done.
	out := s.Gemm(sa.hi, sb.hi)
	hl := s.Gemm(sa.hi, sb.lo)
	lh := s.Gemm(sa.lo, sb.hi)
	c.donePortions(a, sa)
	if b != a {
		c.donePortions(b, sb)
	}
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
// of the vector. The matrix's split is made once and kept on the
// buffer, so an iterative solver re-using its system matrix pays for
// its split once and finds both portions resident on the devices; the
// vector splits on every call. Like an application combining the portions
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

	sp := c.portions(a)
	var xHi, xLo quant.Portion // no codes in timing-only mode
	if c.Functional() {
		v := tensor.FromSlice(1, len(x), x)
		xHi, xLo = quant.SplitQuantize(v, quant.ParamsFor(v))
	}
	// The sum accumulates into the first product; the other two go back
	// to the context's free list. Each pass has collected its
	// instructions when it returns, failed or not, so the codes go back
	// right after.
	out := s.matVec(sp.hi, xHi, len(x))
	hl := s.matVec(sp.hi, xLo, len(x))
	lh := s.matVec(sp.lo, xHi, len(x))
	c.donePortions(a, sp)
	tensor.Put(xHi.Q)
	tensor.Put(xLo.Q)
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

// split is a buffer's dual-portion split: two buffers of their own
// (their own keys, so the devices track each copy apart) whose
// calibrations and int8 codes quant.SplitQuantize builds straight from
// the parent's data. Neither portion ever exists in float32, and their
// M is a shape-only descriptor. Their first use charges the
// Tensorizer's quantize-and-encode pass like any buffer's. Portions
// feed only FullyConnected and GEMM passes, which download wide results
// and never requantize, so their max|code| is not tracked.
type split struct {
	hi, lo *Buffer
	uses   int // precise operators that have used the parent, under its mu
}

// portions returns b's dual-portion split for one precise operator,
// which hands it back with donePortions once its passes are collected.
// The first call makes the split and charges the host split pass; the
// portions keep their keys, calibrations and residency for every later
// call. The codes follow the buffer's own rule (§12.5 of DESIGN.md): a
// buffer one precise operator uses leaves none behind, so its codes are
// pooled scratch that operator puts back. A second operator rebuilds
// them on the host if they are gone and keeps them, charging nothing:
// the split pass was charged once, and the portions are still resident.
func (c *Context) portions(b *Buffer) *split {
	b.mu.Lock()
	defer b.mu.Unlock()
	sp := b.split
	if sp == nil {
		c.ChargeHostWork(c.params.QuantTime(int64(b.M.Elems())))
		sp = &split{
			hi: &Buffer{M: tensor.ShapeOnly(b.M.Rows, b.M.Cols), key: c.nextKey(), calib: quant.Params{Scale: 1}},
			lo: &Buffer{M: tensor.ShapeOnly(b.M.Rows, b.M.Cols), key: c.nextKey(), calib: quant.Params{Scale: 1}},
		}
		b.split = sp
	}
	sp.uses++
	if c.Functional() && sp.hi.q == nil {
		h, l := quant.SplitQuantize(b.M, b.calib)
		sp.hi.calib, sp.hi.q = h.P, h.Q
		sp.lo.calib, sp.lo.q = l.P, l.Q
	}
	return sp
}

// donePortions ends one precise operator's use of b's split sp. The
// parent's only precise operator puts the codes back; once a second has
// begun, every operator leaves them, so none is put back while another
// task's instructions may read it.
func (c *Context) donePortions(b *Buffer, sp *split) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if sp.uses == 1 {
		tensor.Put(sp.hi.q)
		tensor.Put(sp.lo.q)
		sp.hi.q, sp.lo.q = nil, nil
	}
}
