package core

import (
	"math"

	"repro/internal/edgetpu"
	"repro/internal/isa"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Add performs pair-wise matrix addition on the Edge TPUs (the
// overloaded matrix-add operator of section 5).
func (s *Stream) Add(a, b *Buffer) *tensor.Matrix { return s.pairwise(OpAdd, isa.Add, a, b) }

// Sub performs pair-wise matrix subtraction.
func (s *Stream) Sub(a, b *Buffer) *tensor.Matrix { return s.pairwise(OpSub, isa.Sub, a, b) }

// Mul performs pair-wise matrix multiplication (Hadamard
// product); Gaussian elimination's row reductions use it (section
// 7.2.4).
func (s *Stream) Mul(a, b *Buffer) *tensor.Matrix { return s.pairwise(OpMul, isa.Mul, a, b) }

// pairwise implements the section 6.2.1 rule for pair-wise operators:
// divide both inputs into optimally-shaped sub-matrices and rewrite
// the task into one instruction per tile pair. add and sub require a
// joint scale (sums only make sense in a common fixed-point unit);
// mul composes the per-operand scales.
func (s *Stream) pairwise(opr Operator, op isa.OpCode, a, b *Buffer) *tensor.Matrix {
	if !s.enter(opr, Params{}, a, b) {
		return nil
	}
	defer s.opTimer(op.String())()
	c := s.c

	var (
		oa, ob     operand
		ready      timing.Duration
		keyA, keyB uint64
	)
	if op == isa.Mul {
		var ta, tb timing.Duration
		oa, ta = c.ensureQuantized(a, s.now, s.taskID)
		ob, tb = c.ensureQuantized(b, s.now, s.taskID)
		keyA, keyB = a.key, b.key
		ready = max(ta, tb)
	} else {
		// Joint symmetric scale over both operands: the smaller of the
		// per-operand scales covers the wider range (and preserves the
		// exactness-calibrated scale 1 when both datasets are small
		// integers).
		joint := quant.Params{Scale: 1}
		if c.Functional() {
			joint = a.calibration()
			if pb := b.calibration(); pb.Scale < joint.Scale {
				joint = pb
			}
		}
		var da, db *derived
		oa, da = c.jointQuant(a, joint, s.now, s.taskID)
		ob, db = c.jointQuant(b, joint, s.now, s.taskID)
		keyA, keyB = da.key, db.key
		ready = max(da.readyAt, db.readyAt)
	}

	// The device's output stage requantizes wide results back to int8.
	// The Tensorizer calibrates the requantization divisor from the
	// operands' quantized maxima ("dynamically evaluates input data",
	// section 1) instead of the worst-case bound, which preserves
	// exactness for small-integer datasets.
	bound, scale := oa.max+ob.max, oa.p.Scale // Eq. 6
	if op == isa.Mul {
		bound, scale = oa.max*ob.max, oa.p.Scale*ob.p.Scale // Eq. 7
	}
	divisor := requantDivisor(bound)
	div, dq := quant.NewDivider(divisor), float32(divisor)/scale

	out := c.Matrix(a.Rows(), a.Cols())
	tile := isa.TileFor(op)
	spans := tensor.TileSpans(a.Rows(), a.Cols(), tile, tile)
	pl := s.plan(len(spans), 2)
	for i, sp := range spans {
		sp := sp
		w := instrWork{
			instr: isa.Instruction{
				Op: op, InRows: sp.Rows, InCols: sp.Cols,
				TaskID: s.taskID, InputKey: keyA, QuantFlags: quantFlags,
			},
			inputs: pl.inputs(
				inputRef{key: mix(keyA, uint64(i)), bytes: int64(sp.Rows * sp.Cols), chip: a.chipRef()},
				inputRef{key: mix(keyB, uint64(i)), bytes: int64(sp.Rows * sp.Cols), chip: b.chipRef()},
			),
			outBytes: int64(sp.Rows * sp.Cols), // int8 result tiles
			ready:    ready,
		}
		if c.Functional() {
			w.fn = func() { pairwiseTile(c.kern, op, oa, ob, out, sp, div, dq) }
		}
		pl.add(w)
	}
	end, ok := pl.submit().collect()
	if !ok {
		return nil
	}
	// Host-side dequantization of the downloaded int8 tiles.
	s.finish(end, c.params.QuantTime(int64(out.Elems())))
	return out
}

// pairwiseTile computes one tile functionally with device semantics:
// wide accumulation, then the device's output requantization stage
// (the fixed-point realization of the Eq. 6/7 scale rules), then host
// dequantization into the float result.
func pairwiseTile(k *edgetpu.KernelTable, op isa.OpCode, oa, ob operand, out *tensor.Matrix, sp tensor.Span, div quant.Divider, dq float32) {
	va := oa.window(sp.R0, sp.C0, sp.Rows, sp.Cols)
	vb := ob.window(sp.R0, sp.C0, sp.Rows, sp.Cols)
	var wide *tensor.MatrixI32
	switch op {
	case isa.Add:
		wide = k.Add(va, vb)
	case isa.Sub:
		wide = k.Sub(va, vb)
	case isa.Mul:
		wide = k.Mul(va, vb)
	default:
		panic("core: pairwiseTile bad op")
	}
	oa.release(va)
	ob.release(vb)
	requantize(out.View(sp.R0, sp.C0, sp.Rows, sp.Cols), wide, div, dq)
	tensor.Put(wide)
}

// requantDivisor is the output stage's divisor for wide results whose
// magnitude is at most bound: the smallest that brings the bound into
// int8 range, and at least 1 (the bound is 0 in timing-only mode).
func requantDivisor(bound int32) int32 {
	return max((bound+quant.QMax-1)/quant.QMax, 1)
}

// requantize is the device's output stage and the host's
// dequantization, row by row: each value of acc's top-left corner the
// size of out divides by the divisor (div), rounding half away from
// zero, saturates to int8 and lands in out times dq = divisor/scale.
func requantize(out *tensor.Matrix, acc *tensor.MatrixI32, div quant.Divider, dq float32) {
	for r := 0; r < out.Rows; r++ {
		dst := out.Row(r)
		for i, v := range acc.Row(r)[:len(dst)] {
			dst[i] = float32(quant.SaturateI8(div.RoundDiv(v))) * dq
		}
	}
}

// Tanh applies the tanh activation element-wise (Table 1).
func (s *Stream) Tanh(a *Buffer) *tensor.Matrix { return s.elementwise(OpTanh, isa.Tanh, a) }

// ReLU leaves only non-negative values (Table 1's ReLu).
func (s *Stream) ReLU(a *Buffer) *tensor.Matrix { return s.elementwise(OpReLU, isa.ReLU, a) }

func (s *Stream) elementwise(opr Operator, op isa.OpCode, a *Buffer) *tensor.Matrix {
	if !s.enter(opr, Params{}, a, nil) {
		return nil
	}
	defer s.opTimer(op.String())()
	c := s.c
	oa, ready := c.ensureQuantized(a, s.now, s.taskID)
	out := c.Matrix(a.Rows(), a.Cols())
	tile := isa.TileFor(op)
	spans := tensor.TileSpans(a.Rows(), a.Cols(), tile, tile)
	pl := s.plan(len(spans), 1)
	for i, sp := range spans {
		sp := sp
		w := instrWork{
			instr: isa.Instruction{
				Op: op, InRows: sp.Rows, InCols: sp.Cols,
				TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags,
			},
			inputs:   pl.inputs(inputRef{key: mix(a.key, uint64(i)), bytes: int64(sp.Rows * sp.Cols), chip: a.chipRef()}),
			outBytes: int64(sp.Rows * sp.Cols),
			ready:    ready,
		}
		if c.Functional() {
			w.fn = func() { elementwiseTile(c.kern, op, oa, out, sp) }
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

func elementwiseTile(k *edgetpu.KernelTable, op isa.OpCode, oa operand, out *tensor.Matrix, sp tensor.Span) {
	va := oa.window(sp.R0, sp.C0, sp.Rows, sp.Cols)
	var res *tensor.MatrixI8
	var dequant float32
	switch op {
	case isa.Tanh:
		res = k.TanhLUT(va, oa.p.Scale)
		dequant = 1.0 / quant.QMax // tanh outputs quantize to [-127,127] over [-1,1]
	case isa.ReLU:
		res = k.ReLU(va)
		dequant = 1 / oa.p.Scale
	default:
		panic("core: elementwiseTile bad op")
	}
	oa.release(va)
	for r := 0; r < sp.Rows; r++ {
		src := res.Row(r)
		for cix, v := range src {
			out.Set(sp.R0+r, sp.C0+cix, float32(v)*dequant)
		}
	}
	tensor.Put(res)
}

// Mean counts the average value of all elements (Table 1).
func (s *Stream) Mean(a *Buffer) float32 { return s.reduce(OpMean, isa.Mean, a) }

// Max finds the maximum value within the matrix (Table 1).
func (s *Stream) Max(a *Buffer) float32 { return s.reduce(OpMax, isa.Max, a) }

// reduce implements the matrix-wise operator rule of section 6.2.1:
// 64x64 tiles each produce one value; by default CPU code aggregates
// the received values (the paper's choice, because one device round
// already shrinks the data by 4096x and data movement dominates);
// with Config.OnDeviceReduce the runtime instead iterates additional
// device rounds, the alternative the paper rejects.
func (s *Stream) reduce(opr Operator, op isa.OpCode, a *Buffer) float32 {
	if !s.enter(opr, Params{}, a, nil) {
		return 0
	}
	defer s.opTimer(op.String())()
	c := s.c
	oa, ready := c.ensureQuantized(a, s.now, s.taskID)
	tile := isa.TileFor(op)
	spans := tensor.TileSpans(a.Rows(), a.Cols(), tile, tile)

	type partial struct {
		sum   int64
		max   int8
		elems int
	}
	parts := make([]partial, len(spans))
	outBytes := int64(1)
	if op == isa.Mean {
		outBytes = 4 // wide numerator comes back for exact CPU recombination
	}
	pl := s.plan(len(spans), 1)
	for i, sp := range spans {
		i, sp := i, sp
		w := instrWork{
			instr: isa.Instruction{
				Op: op, InRows: sp.Rows, InCols: sp.Cols,
				TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags,
			},
			inputs:   pl.inputs(inputRef{key: mix(a.key, 1000000+uint64(i)), bytes: int64(sp.Rows * sp.Cols), chip: a.chipRef()}),
			outBytes: outBytes,
			ready:    ready,
		}
		if c.Functional() {
			w.fn = func() {
				va := oa.window(sp.R0, sp.C0, sp.Rows, sp.Cols)
				if op == isa.Mean {
					sum, n := c.kern.MeanSum(va)
					parts[i] = partial{sum: sum, elems: n}
				} else {
					parts[i] = partial{max: c.kern.MaxVal(va), elems: va.Elems()}
				}
				oa.release(va)
			}
		}
		pl.add(w)
	}
	end, ok := pl.submit().collect()
	if !ok {
		return 0
	}

	if c.cfg.OnDeviceReduce {
		// Alternative: repeatedly re-encode the received values as a
		// new input tensor and reduce on-device until one value
		// remains. Functionally identical; costs extra encode,
		// transfer and instruction rounds.
		n := len(spans)
		for n > 1 {
			rows := (n + tile - 1) / tile
			if rows > tile {
				rows = tile
			}
			cols := (n + rows - 1) / rows
			end = c.chargeHost(end, c.params.QuantTime(int64(n))+c.params.TensorizerEncodeTime(int64(n)))
			rp := s.plan(1, 1)
			rp.add(instrWork{
				instr: isa.Instruction{Op: op, InRows: rows, InCols: cols,
					TaskID: s.taskID, InputKey: c.nextKey(), QuantFlags: quantFlags},
				inputs:   rp.inputs(inputRef{key: c.nextKey(), bytes: int64(n)}),
				outBytes: outBytes,
				ready:    end,
			})
			if end, ok = rp.submit().collect(); !ok {
				return 0
			}
			n = (n + rows*cols - 1) / (rows * cols)
		}
		s.advance(end)
	} else {
		// CPU aggregation of one value per tile.
		s.finish(end, c.params.AggTime(int64(len(spans))))
	}

	if !c.Functional() {
		return 0
	}
	if op == isa.Mean {
		var sum int64
		var n int
		for _, p := range parts {
			sum += p.sum
			n += p.elems
		}
		if n == 0 {
			return 0
		}
		return float32(float64(sum) / float64(n) / float64(oa.p.Scale))
	}
	best := int8(math.MinInt8)
	for _, p := range parts {
		if p.elems > 0 && p.max > best {
			best = p.max
		}
	}
	return float32(best) / oa.p.Scale
}

// Crop removes all elements outside the given sub-matrix and returns
// it (Table 1); LUD's recursive partitioning uses it (section 7.2.3).
func (s *Stream) Crop(a *Buffer, r0, c0, rows, cols int) *tensor.Matrix {
	if !s.enter(OpCrop, Params{R0: r0, C0: c0, Rows: rows, Cols: cols}, a, nil) {
		return nil
	}
	defer s.opTimer("crop")()
	return s.reshape(isa.Crop, a, rows, cols, func(k *edgetpu.KernelTable, q *tensor.MatrixI8) *tensor.MatrixI8 {
		return k.Crop(q, r0, c0, rows, cols)
	})
}

// Ext pads the matrix to the target dimensionality (Table 1).
func (s *Stream) Ext(a *Buffer, rows, cols int) *tensor.Matrix {
	if !s.enter(OpExt, Params{Rows: rows, Cols: cols}, a, nil) {
		return nil
	}
	defer s.opTimer("ext")()
	return s.reshape(isa.Ext, a, rows, cols, func(k *edgetpu.KernelTable, q *tensor.MatrixI8) *tensor.MatrixI8 {
		return k.Ext(q, rows, cols)
	})
}

// reshape runs Crop or Ext: one instruction over a's whole int8 form
// whose rows×cols result kern computes.
func (s *Stream) reshape(op isa.OpCode, a *Buffer, rows, cols int, kern func(*edgetpu.KernelTable, *tensor.MatrixI8) *tensor.MatrixI8) *tensor.Matrix {
	c := s.c
	oa, ready := c.wholeQuantized(a, s.now, s.taskID)
	pl := s.plan(1, 1)
	w := instrWork{
		instr: isa.Instruction{Op: op, InRows: a.Rows(), InCols: a.Cols(),
			TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags},
		inputs:   pl.inputs(inputRef{key: a.key, bytes: int64(a.M.Elems()), chip: a.chipRef()}),
		outBytes: int64(rows * cols),
		ready:    ready,
	}
	var out *tensor.Matrix
	if c.Functional() {
		w.fn = func() {
			q := kern(c.kern, oa.q)
			out = quant.Dequantize(q, oa.p)
			tensor.Put(q)
		}
	}
	pl.add(w)
	end, ok := pl.submit().collect()
	if !ok {
		return nil
	}
	s.finish(end, c.params.QuantTime(int64(rows*cols)))
	if !c.Functional() {
		return tensor.ShapeOnly(rows, cols)
	}
	return out
}
