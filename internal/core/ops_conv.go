package core

import (
	"repro/internal/isa"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Conv2D performs the Edge TPU conv2D instruction with stride (1,1)
// over the whole input: out[i][j] = sum_{p,q} in[i+p][j+q] * k[p][q],
// zero-padded past the bottom/right edges (paper Equation 9). This is
// the natural mapping for HotSpot3D's stencil ("can naturally map to
// conv2d with a 3x3 kernel without striding", section 7.2.2).
//
// The Tensorizer partitions the input into 128x128 tiles with a
// (kRows-1, kCols-1) halo so tile outputs match the monolithic
// result, and downloads wide accumulators for precision.
func (s *Stream) Conv2D(a *Buffer, kernel *Buffer) *tensor.Matrix {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a, kernel) {
		return nil
	}
	defer s.opTimer("conv2D")()
	checkShapes("conv2D", kernel.Rows() > 0 && kernel.Cols() > 0 &&
		kernel.Rows() <= a.Rows() && kernel.Cols() <= a.Cols(),
		"kernel %dx%d incompatible with input %dx%d", kernel.Rows(), kernel.Cols(), a.Rows(), a.Cols())
	c := s.c
	oa, readyA := c.ensureQuantized(a, s.now, s.taskID)
	kq, readyK := c.wholeQuantized(kernel, s.now, s.taskID)
	ready := maxDur(readyA, readyK)

	out := c.Matrix(a.Rows(), a.Cols())
	tile := isa.ArithTile
	haloR, haloC := kernel.Rows()-1, kernel.Cols()-1
	spans := tensor.TileSpans(a.Rows(), a.Cols(), tile, tile)
	pl := s.plan(len(spans))
	// Output requantization: the accumulated stencil value is bounded
	// by sum|k| * max|input|; the Tensorizer calibrates the divisor
	// from the actual quantized kernel so results ship back as int8
	// (stencil grids re-ship every iteration, so download width is the
	// dominant cost).
	divisor := requantDivisor(absSum(kq.q) * oa.max)
	div, dq := quant.NewDivider(divisor), float32(divisor)/(oa.p.Scale*kq.p.Scale)
	kers := []*tensor.MatrixI8{kq.q} // one channel, shared by every tile
	for i, sp := range spans {
		sp := sp
		// Extended region including the halo, clipped at the matrix
		// boundary (the device zero-pads past the true edge, so
		// clipping reproduces monolithic semantics).
		exR := sp.Rows + haloR
		if sp.R0+exR > a.Rows() {
			exR = a.Rows() - sp.R0
		}
		exC := sp.Cols + haloC
		if sp.C0+exC > a.Cols() {
			exC = a.Cols() - sp.C0
		}
		w := instrWork{
			instr: isa.Instruction{
				Op: isa.Conv2D, InRows: sp.Rows, InCols: sp.Cols,
				KRows: kernel.Rows(), KCols: kernel.Cols(), Channels: 1,
				TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags,
			},
			inputs: pl.inputs(
				inputRef{key: mix(a.key, 2000000+uint64(i)), bytes: int64(exR * exC), chip: a.chipRef()},
				inputRef{key: kernel.key, bytes: int64(kernel.M.Elems()), chip: kernel.chipRef()},
			),
			outBytes: int64(sp.Rows * sp.Cols), // requantized int8 results
			ready:    ready,
		}
		if c.Functional() {
			exR, exC := exR, exC
			w.fn = func() {
				in := oa.window(sp.R0, sp.C0, exR, exC)
				acc := c.kern.Conv2D(in, kers, 1, 1)[0]
				oa.release(in)
				requantize(out.View(sp.R0, sp.C0, sp.Rows, sp.Cols), acc, div, dq)
				tensor.Put(acc)
			}
		}
		pl.add(w)
	}
	end, ok := pl.submit().collect()
	if !ok {
		return nil
	}
	s.finish(end, c.params.QuantTime(int64(out.Elems())))
	return out
}

// Conv2DStrided performs the Edge TPU conv2D instruction with an
// explicit stride (sr, sc): inputs are treated "as groups of sx x sy
// sub-matrices" each producing one result per kernel position (paper
// Figure 5). The output is the condensed ceil(R/sr) x ceil(C/sc)
// matrix. This is the primitive under tpuGemm, exposed for
// applications that want custom grouped reductions (e.g. block
// pooling).
func (s *Stream) Conv2DStrided(a, kernel *Buffer, strideR, strideC int) *tensor.Matrix {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a, kernel) {
		return nil
	}
	defer s.opTimer("conv2DStrided")()
	checkShapes("conv2D-strided", strideR > 0 && strideC > 0, "strides must be positive (%d,%d)", strideR, strideC)
	checkShapes("conv2D-strided", kernel.Rows() > 0 && kernel.Cols() > 0 &&
		kernel.Rows() <= a.Rows() && kernel.Cols() <= a.Cols(),
		"kernel %dx%d incompatible with input %dx%d", kernel.Rows(), kernel.Cols(), a.Rows(), a.Cols())
	c := s.c
	oa, readyA := c.ensureQuantized(a, s.now, s.taskID)
	kq, readyK := c.wholeQuantized(kernel, s.now, s.taskID)
	ready := maxDur(readyA, readyK)

	outRows := (a.Rows() + strideR - 1) / strideR
	outCols := (a.Cols() + strideC - 1) / strideC
	out := c.Matrix(outRows, outCols)

	divisor := requantDivisor(absSum(kq.q) * oa.max)
	div, dq := quant.NewDivider(divisor), float32(divisor)/(oa.p.Scale*kq.p.Scale)
	kers := []*tensor.MatrixI8{kq.q} // one channel, shared by every band

	// Row bands aligned to the stride, sized so a band plus kernel
	// stays well inside on-chip memory.
	bandOut := isa.ArithTile
	if cap := int(c.params.TPUMemBytes/2) / maxInt(a.Cols()*strideR, 1); cap > 0 && cap < bandOut {
		bandOut = maxInt(cap, 1)
	}
	pl := s.plan((outRows + bandOut - 1) / bandOut)
	for o0 := 0; o0 < outRows; o0 += bandOut {
		oEnd := minInt(o0+bandOut, outRows)
		r0 := o0 * strideR
		rEnd := minInt((oEnd-1)*strideR+maxInt(kernel.Rows(), strideR), a.Rows())
		bandRows := rEnd - r0
		w := instrWork{
			instr: isa.Instruction{
				Op: isa.Conv2D, InRows: bandRows, InCols: a.Cols(),
				KRows: kernel.Rows(), KCols: kernel.Cols(),
				StrideR: strideR, StrideC: strideC, Channels: 1,
				TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags,
			},
			inputs: pl.inputs(
				inputRef{key: mix(a.key, 5000000+uint64(o0)), bytes: int64(bandRows) * int64(a.Cols()), chip: a.chipRef()},
				inputRef{key: kernel.key, bytes: int64(kernel.M.Elems()), chip: kernel.chipRef()},
			),
			outBytes: int64(oEnd-o0) * int64(outCols),
			ready:    ready,
		}
		if c.Functional() {
			o0, oEnd, r0, bandRows := o0, oEnd, r0, bandRows
			w.fn = func() {
				in := oa.window(r0, 0, bandRows, a.Cols())
				acc := c.kern.Conv2D(in, kers, strideR, strideC)[0]
				oa.release(in)
				requantize(out.View(o0, 0, oEnd-o0, outCols), acc, div, dq)
				tensor.Put(acc)
			}
		}
		pl.add(w)
	}
	end, ok := pl.submit().collect()
	if !ok {
		return nil
	}
	s.finish(end, c.params.QuantTime(int64(out.Elems())))
	return out
}

// absSum is sum|k| over a quantized kernel (0 in timing-only mode).
func absSum(k *tensor.MatrixI8) int32 {
	if k == nil {
		return 0
	}
	var sum int32
	for r := 0; r < k.Rows; r++ {
		for _, v := range k.Row(r) {
			sum += max(int32(v), -int32(v))
		}
	}
	return sum
}
