package openctpu

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// TestFigure3Transliteration runs the paper's Figure 3 program through
// the C-shaped API: conv2D (here the Gemm library entry, as the
// sample's comment "enqueue the matrix_mul TPU kernel" indicates) on
// two square matrices.
func TestFigure3Transliteration(t *testing.T) {
	const size = 128
	rng := rand.New(rand.NewSource(1))
	am := tensor.RandUniform(rng, size, size, -3, 3)
	bm := tensor.RandUniform(rng, size, size, -3, 3)

	ctx := Init(1)
	matrixAD := AllocDimension(2, size, size)
	matrixBD := AllocDimension(2, size, size)
	matrixCD := AllocDimension(2, size, size)
	tensorA := ctx.CreateBuffer(matrixAD, am.Data)
	tensorB := ctx.CreateBuffer(matrixBD, bm.Data)
	tensorC := NewOutput(matrixCD)

	kernel := func(op *Invoker, args ...*Buffer) {
		if err := op.InvokeOperator(Gemm, SCALE, args[0], args[1], args[2]); err != nil {
			t.Error(err)
		}
	}
	id := ctx.Enqueue(kernel, tensorA, tensorB, tensorC)
	if err := ctx.Wait(id); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	ref := blas.NaiveGemm(am, bm)
	if e := tensor.RMSE(ref, tensorC.Matrix()); e > 0.02 {
		t.Fatalf("RMSE %v", e)
	}
	if len(tensorC.Data()) != size*size {
		t.Fatal("output data not exposed")
	}
}

func TestAllOperatorsThroughShim(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(2))
	am := tensor.RandUniform(rng, n, n, 0.1, 2)
	bm := tensor.RandUniform(rng, n, n, 0.1, 2)
	km := tensor.FromSlice(2, 2, []float32{0.25, 0.25, 0.25, 0.25})
	xv := make([]float32, n)
	for i := range xv {
		xv[i] = rng.Float32()
	}

	ctx := Init(2)
	d := AllocDimension(2, n, n)
	a := ctx.CreateBuffer(d, am.Data)
	b := ctx.CreateBuffer(d, bm.Data)
	k := ctx.CreateBuffer(AllocDimension(2, 2, 2), km.Data)
	x := ctx.CreateBuffer(AllocDimension(1, n), xv)

	type tc struct {
		op   TPUOp
		args func() []*Buffer
		rows int
	}
	cases := []tc{
		{Add, func() []*Buffer { return []*Buffer{a, b, NewOutput(d)} }, n},
		{Sub, func() []*Buffer { return []*Buffer{a, b, NewOutput(d)} }, n},
		{Mul, func() []*Buffer { return []*Buffer{a, b, NewOutput(d)} }, n},
		{Conv2D, func() []*Buffer { return []*Buffer{a, k, NewOutput(d)} }, n},
		{Gemm, func() []*Buffer { return []*Buffer{a, b, NewOutput(d)} }, n},
		{FullyConnected, func() []*Buffer { return []*Buffer{a, x, NewOutput(AllocDimension(1, n))} }, 1},
		{Tanh, func() []*Buffer { return []*Buffer{a, NewOutput(d)} }, n},
		{ReLU, func() []*Buffer { return []*Buffer{a, NewOutput(d)} }, n},
		{Mean, func() []*Buffer { return []*Buffer{a, NewOutput(AllocDimension(1, 1))} }, 1},
		{Max, func() []*Buffer { return []*Buffer{a, NewOutput(AllocDimension(1, 1))} }, 1},
		{Crop, func() []*Buffer { return []*Buffer{a, NewOutput(AllocDimension(2, 8, 8))} }, 8},
		{Ext, func() []*Buffer { return []*Buffer{a, NewOutput(AllocDimension(2, 128, 128))} }, 128},
	}
	for _, c := range cases {
		args := c.args()
		id := ctx.Enqueue(func(op *Invoker, bufs ...*Buffer) {
			if err := op.InvokeOperator(c.op, SCALE, bufs...); err != nil {
				t.Errorf("op %d: %v", c.op, err)
			}
		}, args...)
		if err := ctx.Wait(id); err != nil {
			t.Fatalf("op %d: %v", c.op, err)
		}
		out := args[len(args)-1]
		if out.Matrix() == nil || out.Matrix().Rows != c.rows {
			t.Fatalf("op %d: bad output shape", c.op)
		}
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	if ctx.Elapsed() == "0s" {
		t.Fatal("no virtual time charged")
	}
}

func TestInvokeOperatorArgErrors(t *testing.T) {
	ctx := Init(1)
	d := AllocDimension(2, 4, 4)
	a := ctx.CreateBuffer(d, make([]float32, 16))
	id := ctx.Enqueue(func(op *Invoker, bufs ...*Buffer) {
		if err := op.InvokeOperator(Add, SCALE, bufs[0]); err == nil {
			t.Error("binary op with one arg must error")
		}
		if err := op.InvokeOperator(Tanh, SCALE); err == nil {
			t.Error("unary op with no args must error")
		}
		if err := op.InvokeOperator(TPUOp(99), SCALE, bufs[0], bufs[0], bufs[0]); err == nil {
			t.Error("unknown op must error")
		}
	}, a)
	if err := ctx.Wait(id); err != nil {
		t.Fatal(err)
	}
}

func TestWaitUnknownTask(t *testing.T) {
	ctx := Init(1)
	if err := ctx.Wait(42); err == nil {
		t.Fatal("unknown task id must error")
	}
}

// TestGraphEscapeHatch: a graph opened through the Context escape
// hatch submits a whole DAG on the transliterated context's runtime and
// matches the per-op shim result bit-for-bit (same runtime, same
// quantization path).
func TestGraphEscapeHatch(t *testing.T) {
	const size = 96
	rng := rand.New(rand.NewSource(9))
	am := tensor.RandUniform(rng, size, size, -2, 2)
	bm := tensor.RandUniform(rng, size, size, -2, 2)

	// Per-op reference through the shim.
	ref := Init(1)
	ad := AllocDimension(2, size, size)
	ta := ref.CreateBuffer(ad, am.Data)
	tb := ref.CreateBuffer(ad, bm.Data)
	tc := NewOutput(ad)
	td := NewOutput(ad)
	id := ref.Enqueue(func(op *Invoker, args ...*Buffer) {
		if err := op.InvokeOperator(Gemm, SCALE, args[0], args[1], args[2]); err != nil {
			t.Error(err)
		}
	}, ta, tb, tc)
	if err := ref.Wait(id); err != nil {
		t.Fatal(err)
	}
	mid := ref.CreateBuffer(ad, tc.Matrix().Data)
	id = ref.Enqueue(func(op *Invoker, args ...*Buffer) {
		if err := op.InvokeOperator(Tanh, SCALE, args[0], args[1]); err != nil {
			t.Error(err)
		}
	}, mid, td)
	if err := ref.Wait(id); err != nil {
		t.Fatal(err)
	}

	// Graph path through the escape hatch.
	ctx := Init(1)
	ga := ctx.CreateBuffer(ad, am.Data)
	gb := ctx.CreateBuffer(ad, bm.Data)
	g := ctx.Context().NewGraph()
	leaf := g.MatMul(ga.buf, gb.buf).Tanh()
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}
	got, err := leaf.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := td.Matrix()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for r := 0; r < size; r++ {
		for c := 0; c < size; c++ {
			if want.At(r, c) != got.At(r, c) {
				t.Fatalf("[%d,%d] %v != %v", r, c, want.At(r, c), got.At(r, c))
			}
		}
	}
}
