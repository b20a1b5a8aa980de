package core

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestOperatorTable pins every row of the operator table to the named
// Stream method it stands for. Stream.Apply and a fetched graph node of
// the operator must both compute what the named method computes, with
// the shape the table's shape rule gives.
func TestOperatorTable(t *testing.T) {
	scalar := func(v float32) *tensor.Matrix { return tensor.FromSlice(1, 1, []float32{v}) }
	cases := []struct {
		op     Operator
		method func(s *Stream, a, b *Buffer) *tensor.Matrix
		br, bc int // second operand's shape, zero for a unary operator
	}{
		{OpGemm, (*Stream).Gemm, 24, 16},
		{OpGemmFC, (*Stream).GemmFC, 24, 16},
		{OpAdd, (*Stream).Add, 40, 24},
		{OpSub, (*Stream).Sub, 40, 24},
		{OpMul, (*Stream).Mul, 40, 24},
		{OpConv2D, (*Stream).Conv2D, 3, 3},
		{OpTanh, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return s.Tanh(a) }, 0, 0},
		{OpReLU, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return s.ReLU(a) }, 0, 0},
		{OpMean, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return scalar(s.Mean(a)) }, 0, 0},
		{OpMax, func(s *Stream, a, _ *Buffer) *tensor.Matrix { return scalar(s.Max(a)) }, 0, 0},
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
		got := run(func(ctx *Context, a, b *Buffer) *tensor.Matrix { return ctx.NewOp().Apply(c.op, a, b) })
		node := run(func(ctx *Context, a, b *Buffer) *tensor.Matrix {
			g := ctx.NewGraph()
			args := []Value{a}
			if b != nil {
				args = append(args, b)
			}
			n := g.Apply(c.op, args...).Fetch()
			if err := g.Submit(); err != nil {
				t.Fatalf("%s: graph: %v", c.op, err)
			}
			m, err := n.Result()
			if err != nil {
				t.Fatalf("%s: graph result: %v", c.op, err)
			}
			return m
		})
		rows, cols, err := c.op.Shape(am.Rows, am.Cols, c.br, c.bc)
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
