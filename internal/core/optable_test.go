package core

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestOperatorTable pins every row of the operator table to the named
// Stream method it stands for. Stream.Apply and a fetched graph node of
// the operator, given the row's parameters, must both compute what the
// named method computes, with the shape the table's shape rule gives.
func TestOperatorTable(t *testing.T) {
	scalar := func(v float32) *tensor.Matrix { return tensor.FromSlice(1, 1, []float32{v}) }
	cases := []struct {
		op     Operator
		method func(s *Stream, a, b *Buffer) *tensor.Matrix
		br, bc int // second operand's shape, zero for a unary operator
		p      Params
	}{
		{OpGemm, (*Stream).Gemm, 24, 16, Params{}},
		{OpGemmFC, (*Stream).GemmFC, 24, 16, Params{}},
		{OpAdd, (*Stream).Add, 40, 24, Params{}},
		{OpSub, (*Stream).Sub, 40, 24, Params{}},
		{OpMul, (*Stream).Mul, 40, 24, Params{}},
		{OpConv2D, (*Stream).Conv2D, 3, 3, Params{}},
		{OpTanh, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return s.Tanh(a) }, 0, 0, Params{}},
		{OpReLU, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return s.ReLU(a) }, 0, 0, Params{}},
		{OpMean, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return scalar(s.Mean(a)) }, 0, 0, Params{}},
		{OpMax, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return scalar(s.Max(a)) }, 0, 0, Params{}},
		{OpConv2DStrided, func(s *Stream, a, k *Buffer) *tensor.Matrix { return s.Conv2DStrided(a, k, 2, 3) }, 3, 2,
			Params{StrideR: 2, StrideC: 3}},
		{OpCrop, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return s.Crop(a, 3, 5, 17, 11) }, 0, 0,
			Params{R0: 3, C0: 5, Rows: 17, Cols: 11}},
		{OpExt, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return s.Ext(a, 50, 31) }, 0, 0,
			Params{Rows: 50, Cols: 31}},
		{OpMatVec, func(s *Stream, a, x *Buffer) *tensor.Matrix {
			y := s.MatVec(a, x.M.Data)
			return tensor.FromSlice(1, len(y), y)
		}, 1, 24, Params{}},
	}
	if len(cases) != len(operators) {
		t.Fatalf("%d cases for %d table operators", len(cases), len(operators))
	}
	rng := rand.New(rand.NewSource(45))
	am := tensor.RandUniform(rng, 40, 24, -2, 2)
	for i, c := range cases {
		arity := 1
		if c.br > 0 {
			arity = 2
		}
		if c.op != Operator(i) || c.op.Arity() != arity {
			t.Fatalf("case %d is %s with a %dx%d second operand; want table row %d", i, c.op, c.br, c.bc, i)
		}
		var bm *tensor.Matrix
		if c.br > 0 {
			bm = tensor.RandUniform(rng, c.br, c.bc, -1, 1)
		}
		// Each path runs on a context of its own, so no quantization
		// cache one path fills can serve another.
		run := func(f func(ctx *Context, a, b *Buffer) *tensor.Matrix) *tensor.Matrix {
			ctx := testCtx(1)
			defer ctx.Close()
			var b *Buffer
			if bm != nil {
				b = ctx.CreateMatrixBuffer(bm)
			}
			return f(ctx, ctx.CreateMatrixBuffer(am), b)
		}
		want := run(func(ctx *Context, a, b *Buffer) *tensor.Matrix { return c.method(ctx.NewOp(), a, b) })
		got := run(func(ctx *Context, a, b *Buffer) *tensor.Matrix { return ctx.NewOp().Apply(c.op, c.p, a, b) })
		node := run(func(ctx *Context, a, b *Buffer) *tensor.Matrix {
			g := ctx.NewGraph()
			args := []Value{a}
			if b != nil {
				args = append(args, b)
			}
			n := g.Apply(c.op, c.p, args...).Fetch()
			if err := g.Submit(); err != nil {
				t.Fatalf("%s: graph: %v", c.op, err)
			}
			m, err := n.Result()
			if err != nil {
				t.Fatalf("%s: graph result: %v", c.op, err)
			}
			return m
		})
		rows, cols, err := c.op.Shape(c.p, am.Rows, am.Cols, c.br, c.bc)
		if err != nil {
			t.Fatalf("%s: shape rule rejects valid operands: %v", c.op, err)
		}
		if want.Rows != rows || want.Cols != cols {
			t.Errorf("%s: named method gives %dx%d, shape rule %dx%d", c.op, want.Rows, want.Cols, rows, cols)
		}
		if !want.Equal(got) {
			t.Errorf("%s: Stream.Apply differs from the named Stream method", c.op)
		}
		if !want.Equal(node) {
			t.Errorf("%s: graph node differs from the named Stream method", c.op)
		}
	}
}

// TestShapeRulesAllocateNothing: every row's shape rule accepts good
// operands without allocating. Operand dimensions and parameters are
// at least 256 because Go boxes smaller ints into an interface without
// allocating, which would hide a rule that boxes its arguments.
func TestShapeRulesAllocateNothing(t *testing.T) {
	cases := map[Operator]struct {
		ar, ac, br, bc int
		p              Params
	}{
		OpGemm:          {300, 400, 400, 500, Params{}},
		OpGemmFC:        {300, 400, 400, 500, Params{}},
		OpAdd:           {300, 400, 300, 400, Params{}},
		OpSub:           {300, 400, 300, 400, Params{}},
		OpMul:           {300, 400, 300, 400, Params{}},
		OpConv2D:        {300, 400, 256, 257, Params{}},
		OpTanh:          {300, 400, 0, 0, Params{}},
		OpReLU:          {300, 400, 0, 0, Params{}},
		OpMean:          {300, 400, 0, 0, Params{}},
		OpMax:           {300, 400, 0, 0, Params{}},
		OpConv2DStrided: {1000, 1000, 256, 257, Params{StrideR: 300, StrideC: 400}},
		OpCrop:          {1024, 1024, 0, 0, Params{R0: 300, C0: 300, Rows: 400, Cols: 400}},
		OpExt:           {300, 400, 0, 0, Params{Rows: 700, Cols: 800}},
		OpMatVec:        {300, 400, 1, 400, Params{}},
	}
	for op := Operator(0); op < numOperators; op++ {
		c, ok := cases[op]
		if !ok {
			t.Errorf("%s: no case", op)
			continue
		}
		if _, _, err := op.Shape(c.p, c.ar, c.ac, c.br, c.bc); err != nil {
			t.Fatalf("%s: shape rule rejects valid operands: %v", op, err)
		}
		if n := testing.AllocsPerRun(100, func() { op.Shape(c.p, c.ar, c.ac, c.br, c.bc) }); n != 0 {
			t.Errorf("%s: shape rule allocates %v times on success", op, n)
		}
	}
}

// TestGraphCropAllocatesLikeTanh: a node's shape check costs nothing
// beyond the node itself, so building a Crop node, whose window is
// four parameters, allocates no more than building a Tanh node.
func TestGraphCropAllocatesLikeTanh(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	a := ctx.CreateMatrixBuffer(tensor.New(1024, 1024))
	crop := testing.AllocsPerRun(100, func() { ctx.NewGraph().Crop(a, 300, 300, 400, 400) })
	tanh := testing.AllocsPerRun(100, func() { ctx.NewGraph().Tanh(a) })
	if crop > tanh {
		t.Errorf("building a Crop node allocates %v times, a Tanh node %v", crop, tanh)
	}
}
