package core

import (
	"math"
	"sync"

	"repro/internal/isa"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// MatVec multiplies the matrix buffer a (M x N) by the vector x
// (length N) on the Edge TPUs using FullyConnected instructions —
// PageRank's adjacency-matrix product uses "one FullyConnected
// instruction for each adjacency-matrix multiplication with a single
// vector" (section 7.2.1), which the Tensorizer partitions into
// 128x128 weight tiles whose wide partial results CPU code aggregates
// (section 6.2.1).
func (s *Stream) MatVec(a *Buffer, x []float32) []float32 {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a) {
		return nil
	}
	defer s.opTimer("matVec")()
	checkShapes("FullyConnected", len(x) == a.Cols(),
		"vector length %d != matrix cols %d", len(x), a.Cols())

	// Quantize the vector (fresh each call: iterative algorithms update
	// it every round) into a pooled scratch that goes back once the
	// instructions that read it have been collected.
	var xq quant.Portion // no codes in timing-only mode
	if s.c.Functional() {
		xq.P = quant.ParamsFor(tensor.FromSlice(1, len(x), x))
		xq.Q = tensor.GetForOverwrite[int8](1, len(x))
		defer tensor.Put(xq.Q)
		for i, v := range x {
			xq.Q.Data[i] = quant.RoundToI8(v, xq.P.Scale)
		}
	}
	return s.matVec(a, xq, len(x))
}

// matVec is MatVec over a vector of n elements already in int8 form
// (x.Q is nil in timing-only mode); it charges the vector's quantize
// and encode pass all the same.
func (s *Stream) matVec(a *Buffer, x quant.Portion, n int) []float32 {
	if s.err != nil {
		return nil
	}
	c := s.c
	oa, readyA := c.ensureQuantized(a, s.now, s.taskID)
	var qx []int8
	if x.Q != nil {
		qx = x.Q.Data
	}
	sx := x.P.Scale
	xKey := c.nextKey()
	ready := c.chargeHost(maxDur(readyA, s.now),
		c.params.QuantTime(int64(n))+c.params.TensorizerEncodeTime(int64(n)))

	m := a.Rows()
	tile := isa.ArithTile
	colTiles := (n + tile - 1) / tile

	// Row-block granularity: enough blocks to spread across every
	// device, few enough that the IQ dispatch overhead stays bounded
	// for very tall matrices, and capped so a block's weights fit
	// half the on-chip memory.
	blockRows := (m + 4*c.cfg.Devices - 1) / (4 * c.cfg.Devices)
	blockRows = (blockRows + tile - 1) / tile * tile
	if blockRows < tile {
		blockRows = tile
	}
	if memCap := int(c.params.TPUMemBytes / 2 / int64(maxInt(n, 1))); memCap >= tile {
		memCap = memCap / tile * tile
		if blockRows > memCap {
			blockRows = memCap
		}
	} else {
		blockRows = tile
	}

	var acc []int64
	if c.Functional() {
		wide := tensor.Get[int64](1, m)
		defer tensor.Put(wide)
		acc = wide.Data
	}
	pl := s.plan((m + blockRows - 1) / blockRows)
	inCols := tile
	if n < tile {
		inCols = n
	}
	for r0 := 0; r0 < m; r0 += blockRows {
		rows := blockRows
		if r0+rows > m {
			rows = m - r0
		}
		rowTiles := (rows + tile - 1) / tile
		inputs := pl.inputs(
			// The weight block was encoded when the buffer was first
			// used; it can prefetch over the link before the fresh
			// vector is ready.
			inputRef{key: mix(a.key, 3000000+uint64(r0)), bytes: int64(rows) * int64(n), ready: readyA, chip: a.chipRef()},
			inputRef{key: xKey, bytes: int64(n)},
		)
		instr := isa.Instruction{
			Op: isa.FullyConnected, InRows: tile, InCols: inCols,
			TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags,
		}
		count := rowTiles * colTiles
		outBytes := int64(rows) * 4 * int64(colTiles)
		if colTiles == 1 {
			// Batch-mode FullyConnected: a tall, thin weight matrix is
			// inference over a batch — one instruction streams the
			// whole block through the matrix unit (how TFLite issues
			// batched FC), and the single per-row result downloads as
			// a dual-portion int8 pair instead of a wide accumulator
			// (no cross-tile aggregation exists to need width).
			instr.InRows = rows
			instr.InCols = n
			count = 1
			outBytes = int64(rows) * 2
		}
		w := instrWork{
			instr:    instr,
			count:    count,
			inputs:   inputs,
			outBytes: outBytes,
			ready:    ready,
		}
		if c.Functional() {
			r0, rows := r0, rows
			w.fn = func() {
				part := tensor.GetForOverwrite[int32](1, rows)
				block := oa.window(r0, 0, rows, n)
				for ct := 0; ct < colTiles; ct++ {
					c0 := ct * tile
					cols := segLen(n, ct, tile)
					wt := block.View(0, c0, rows, cols)
					c.kern.FullyConnectedInto(part.Data, wt, qx[c0:c0+cols])
					for i, v := range part.Data {
						acc[r0+i] += int64(v)
					}
				}
				oa.release(block)
				tensor.Put(part)
			}
		}
		pl.add(w)
	}
	end, ok := pl.submit().collect()
	if !ok {
		return nil
	}
	// CPU aggregation of per-column-tile partial vectors plus final
	// dequantization.
	s.finish(end, c.params.AggTime(int64(m)*int64(colTiles))+c.params.QuantTime(int64(m)))

	if !c.Functional() {
		return make([]float32, m)
	}
	out := c.Matrix(1, m).Data
	inv := 1 / (float64(oa.p.Scale) * float64(sx))
	for i, v := range acc {
		out[i] = float32(float64(v) * inv)
	}
	return out
}

func segLen(n, idx, tile int) int {
	c0 := idx * tile
	if c0+tile > n {
		return n - c0
	}
	return tile
}

// GemmFC multiplies a (M x N) by b (N x K) using only
// FullyConnected instructions: the section 7.1.1 algorithm that
// "iterates through a column or row of the other matrix", performing
// the multiplication via K FullyConnected operators. The paper's
// Figure 6 shows this implementation cannot beat the CPU baseline —
// reproducing that result is the point of keeping it.
func (s *Stream) GemmFC(a, b *Buffer) *tensor.Matrix {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a, b) {
		return nil
	}
	defer s.opTimer("tpuGemmFC")()
	checkShapes("FullyConnected-GEMM", a.Cols() == b.Rows(),
		"inner dimensions %d vs %d", a.Cols(), b.Rows())
	c := s.c
	oa, readyA := c.wholeQuantized(a, s.now, s.taskID)
	ob, readyB := c.wholeQuantized(b, s.now, s.taskID)
	qa, qb := oa.q, ob.q
	ready := maxDur(readyA, readyB)

	m, n, k := a.Rows(), a.Cols(), b.Cols()
	tile := isa.ArithTile
	rowTiles := (m + tile - 1) / tile
	colTiles := (n + tile - 1) / tile

	out := c.Matrix(m, k)
	pl := s.plan(rowTiles * k)
	inputs := make([]inputRef, 0, colTiles+1) // staging, copied into the plan's arena
	for j := 0; j < k; j++ {
		for rt := 0; rt < rowTiles; rt++ {
			r0 := rt * tile
			rows := tile
			if r0+rows > m {
				rows = m - r0
			}
			inputs = inputs[:0]
			for ct := 0; ct < colTiles; ct++ {
				inputs = append(inputs, inputRef{
					key:   mix(a.key, 3000000+uint64(rt*colTiles+ct)),
					bytes: int64(rows) * int64(segLen(n, ct, tile)),
					chip:  a.chipRef(),
				})
			}
			inputs = append(inputs, inputRef{key: mix(b.key, 4000000+uint64(j)), bytes: int64(n), chip: b.chipRef()})
			w := instrWork{
				instr: isa.Instruction{
					Op: isa.FullyConnected, InRows: rows, InCols: tile,
					TaskID: s.taskID, InputKey: a.key, QuantFlags: quantFlags,
				},
				count:    colTiles,
				inputs:   pl.inputs(inputs...),
				outBytes: int64(rows) * 4 * int64(colTiles),
				ready:    ready,
			}
			if c.Functional() {
				j, r0, rows := j, r0, rows
				w.fn = func() {
					wide := tensor.Get[int64](1, rows)
					acc := wide.Data
					colBuf := tensor.GetForOverwrite[int8](1, tile)
					part := tensor.GetForOverwrite[int32](1, rows)
					for ct := 0; ct < colTiles; ct++ {
						c0 := ct * tile
						cols := segLen(n, ct, tile)
						col := colBuf.Data[:0]
						for i := 0; i < cols; i++ {
							col = append(col, qb.At(c0+i, j))
						}
						wt := qa.View(r0, c0, rows, cols)
						c.kern.FullyConnectedInto(part.Data, wt, col)
						for i, v := range part.Data {
							acc[i] += int64(v)
						}
					}
					tensor.Put(part)
					tensor.Put(colBuf)
					inv := 1 / (float64(oa.p.Scale) * float64(ob.p.Scale))
					for i, v := range acc {
						out.Set(r0+i, j, float32(float64(v)*inv))
					}
					tensor.Put(wide)
				}
			}
			pl.add(w)
		}
	}
	end, ok := pl.submit().collect()
	if !ok {
		return nil
	}
	s.finish(end, c.params.AggTime(int64(m)*int64(k)*int64(colTiles))+c.params.QuantTime(int64(m)*int64(k)))
	return out
}

// Gemm is tpuGemm, the optimized GEMM library function of section
// 7.1.2: both inputs are re-laid-out so that each row of a becomes an
// s x s sub-matrix (s = ceil(sqrt(N))) and each column of b becomes an
// s x s kernel; conv2D with stride (s, s) then performs exactly the
// multiplications and accumulations of GEMM while enjoying conv2D's
// 25x RPS advantage over FullyConnected (Table 1).
//
// For inner dimensions too large for good on-chip reuse, the
// Tensorizer additionally splits the inner dimension into segments
// whose wide partial products the CPU aggregates — the section 6.2.1
// "blocking algorithm for matrix multiplications [69]" with its
// CPU-side aggregation ("the CPU code only needs to add received
// values"), which also reduces precision loss because CPU registers
// are wider than the device's data paths.
func (s *Stream) Gemm(a, b *Buffer) *tensor.Matrix {
	if s.err != nil {
		return nil
	}
	if !s.inputs(a, b) {
		return nil
	}
	defer s.opTimer("tpuGemm")()
	checkShapes("tpuGemm", a.Cols() == b.Rows(),
		"inner dimensions %d vs %d", a.Cols(), b.Rows())
	c := s.c
	m, n, k := a.Rows(), a.Cols(), b.Cols()
	half := c.params.TPUMemBytes / 2

	// Inner-dimension segmentation: minimizing total PCIe traffic
	// 2*M*K*(N/ks)^2/half + 4*M*K*ks over the segment count yields
	// ks ~ N/sqrt(2*half); segments below that threshold fit the
	// on-chip memory well enough that one pass suffices.
	ks := int(math.Round(float64(n) / math.Sqrt(2*float64(half))))
	if ks < 1 {
		ks = 1
	}
	if ks > n {
		ks = n
	}
	segLenN := (n + ks - 1) / ks

	oa, readyA := c.ensureQuantized(a, s.now, s.taskID)
	ob, readyB := c.ensureQuantized(b, s.now, s.taskID)

	out := c.Matrix(m, k)

	// Chunk geometry is hoisted above the segment loop and shared by
	// every segment (sized for the largest segment's padded block n2max,
	// so smaller last segments still fit on-chip memory). Aligned
	// rectangles across segments let the functional accumulation run
	// under one lock per output rectangle instead of a single global
	// mutex that serialized every closure.
	side0 := int(math.Ceil(math.Sqrt(float64(segLenN))))
	n2max := side0 * side0
	parallel := (m + 2*c.cfg.Devices - 1) / (2 * c.cfg.Devices)
	chunkRows := clampChunk(minInt(int(half/int64(n2max)), parallel), m)
	chanBatch := clampChunk(int(half/int64(n2max)), k)
	ncc := (k + chanBatch - 1) / chanBatch

	// With one segment (the common case: every inner dimension below
	// ~4300) each output rectangle is written by exactly one closure, so
	// the closure dequantizes its int32 partials straight into out. Only
	// a segmented inner dimension needs the wide accumulator — segment
	// partials add up exactly in 64-bit integers ("the CPU code only
	// needs to add received values", section 6.2.1), which also keeps the
	// functional result bit-identical while segment closures run in
	// parallel: integer addition commutes, so the nondeterministic
	// closure completion order cannot show.
	inv := 1 / (float64(oa.p.Scale) * float64(ob.p.Scale))
	var acc []int64
	var rectMu []sync.Mutex
	if c.Functional() && ks > 1 {
		wide := tensor.Get[int64](1, m*k)
		defer tensor.Put(wide)
		acc = wide.Data
		rectMu = make([]sync.Mutex, ((m+chunkRows-1)/chunkRows)*ncc)
	}

	// Segments pipeline through the IQ: each segment's instructions are
	// submitted as soon as its derived layouts exist, so the engine
	// charges and executes segment i while the host still builds segment
	// i+1's layouts.
	pendings := make([]*plan, 0, ks)
	for seg := 0; seg < ks; seg++ {
		segStart := seg * segLenN
		segN := segLenN
		if segStart+segN > n {
			segN = n - segStart
		}
		if segN <= 0 {
			break
		}
		side := int(math.Ceil(math.Sqrt(float64(segN))))
		n2 := side * side

		// Derived layout for a's segment: each row's segment columns
		// zero-padded to n2 and interpreted as an s x s block (a pure
		// layout identity: the padded row *is* the row-major block).
		// A segment spanning all of n needs no copy at all: the closures
		// read only the first segN columns of each row, which are a's own
		// rows, so they read a itself (the host cost of the layout is
		// charged all the same — the simulated Tensorizer still emits it).
		// Layouts copy from windows of the operands, so an operand used
		// once never has a whole int8 form.
		layoutA := func(bool) *tensor.MatrixI8 {
			w := oa.window(0, segStart, m, segN)
			o := tensor.NewI8(m, n2)
			for r := 0; r < m; r++ {
				copy(o.Row(r), w.Row(r))
			}
			oa.release(w)
			return o
		}
		if segN == n {
			layoutA = nil
		}
		da := c.derivedQuant(a, derivedTag{kind: tagConvA, seg: seg, side: side}, int64(m)*int64(n2),
			maxDur(readyA, s.now), s.taskID, layoutA)
		wa := oa
		if segN != n {
			wa = operand{q: da.q}
		}
		// Derived layout for b's segment: kernel j holds rows
		// segStart..segStart+segN of column j, padded to n2.
		db := c.derivedQuant(b, derivedTag{kind: tagConvB, seg: seg, side: side}, int64(k)*int64(n2),
			maxDur(readyB, s.now), s.taskID, func(bool) *tensor.MatrixI8 {
				w := ob.window(segStart, 0, segN, k)
				o := tensor.NewI8(k, n2)
				for i := 0; i < segN; i++ {
					for j, v := range w.Row(i) {
						o.Set(j, i, v)
					}
				}
				ob.release(w)
				return o
			})
		ready := maxDur(da.readyAt, db.readyAt)

		// Rows of a and kernels of b partition along the hoisted chunk
		// geometry: one instruction's operands fit the on-chip memory,
		// finely enough that the runtime spreads instructions over every
		// attached device ("Tensorizer also automatically generates
		// parallel tasks from the user code", section 9.3).
		pl := s.plan(((m + chunkRows - 1) / chunkRows) * ncc)
		for r0 := 0; r0 < m; r0 += chunkRows {
			rows := chunkRows
			if r0+rows > m {
				rows = m - r0
			}
			for c0 := 0; c0 < k; c0 += chanBatch {
				nch := chanBatch
				if c0+nch > k {
					nch = k - c0
				}
				w := instrWork{
					instr: isa.Instruction{
						Op: isa.Conv2D, InRows: rows * side, InCols: side,
						KRows: side, KCols: side, StrideR: side, StrideC: side, Channels: nch,
						TaskID: s.taskID, InputKey: da.key, QuantFlags: quantFlags,
					},
					// Derived conv layouts of an on-chip intermediate
					// inherit its residency: the reshaping is the
					// simulation's bookkeeping, not a host round trip.
					inputs: pl.inputs(
						inputRef{key: mix(da.key, uint64(r0)), bytes: int64(rows) * int64(n2), chip: a.chipRef()},
						inputRef{key: mix(db.key, uint64(c0)), bytes: int64(nch) * int64(n2), chip: b.chipRef()},
					),
					// Partials return as dual-portion int16 pairs: wide
					// enough for exact CPU aggregation at 1/254^2
					// relative granularity, half the download cost of
					// raw int32 accumulators.
					outBytes: int64(rows) * int64(nch) * 2,
					ready:    ready,
				}
				if c.Functional() {
					r0, rows, c0, nch, segN := r0, rows, c0, nch, segN
					dbq := db.q
					rect := (r0/chunkRows)*ncc + c0/chanBatch
					w.fn = func() {
						// Each padded row of the derived layout *is* one
						// flattened s x s window, each kernel row one
						// flattened s x s kernel, so the strided conv2D
						// the device runs is a row-by-row dot product —
						// Conv2DGemm, with no per-channel matrix headers.
						// The views stop at segN: columns segN..n2 are
						// the layout's zero padding, whose products the
						// device computes but which contribute exactly
						// nothing to the integer accumulators — skipping
						// them is bit-identical and trims n2-segN MACs
						// off every dot product.
						wins := wa.window(r0, 0, rows, segN)
						kers := dbq.View(c0, 0, nch, segN)
						outs := c.kern.Conv2DGemm(wins, kers)
						wa.release(wins)
						if acc == nil {
							for i := 0; i < rows; i++ {
								dst := out.Row(r0 + i)[c0 : c0+nch]
								for j, v := range outs.Row(i) {
									dst[j] = float32(float64(v) * inv)
								}
							}
						} else {
							rectMu[rect].Lock()
							for i := 0; i < rows; i++ {
								base := (r0+i)*k + c0
								for j, v := range outs.Row(i) {
									acc[base+j] += int64(v)
								}
							}
							rectMu[rect].Unlock()
						}
						tensor.Put(outs)
					}
				}
				pl.add(w)
			}
		}
		pendings = append(pendings, pl.submit())
	}
	// Collect every segment (even after a failure, so no closure is
	// left running against the accumulators) and keep the latest
	// virtual completion.
	var lastEnd timing.Duration
	allOK := true
	for _, pd := range pendings {
		end, ok := pd.collect()
		if !ok {
			allOK = false
		} else if end > lastEnd {
			lastEnd = end
		}
	}
	if !allOK {
		return nil
	}
	// CPU aggregation of the wide segment partials plus the final
	// dequantization pass.
	s.finish(lastEnd, c.params.AggTime(int64(m)*int64(k)*int64(ks-1))+
		c.params.QuantTime(int64(m)*int64(k)))
	if acc != nil {
		for r := 0; r < m; r++ {
			row := out.Row(r)
			for j := range row {
				row[j] = float32(float64(acc[r*k+j]) * inv)
			}
		}
	}
	return out
}

func clampChunk(v, max int) int {
	if v < 1 {
		return 1
	}
	if v > max {
		return max
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
