package gptpu

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

func TestFigure3Workflow(t *testing.T) {
	// The paper's Figure 3 code sample, end to end: buffers, kernel
	// enqueue, operator invocation, sync.
	const n = 96
	rng := rand.New(rand.NewSource(1))
	am := tensor.RandUniform(rng, n, n, -2, 2)
	bm := tensor.RandUniform(rng, n, n, -2, 2)

	ctx := Open(Config{Devices: 1})
	dim := AllocDimension(2, n, n)
	a := ctx.CreateBuffer(dim, am.Data)
	b := ctx.CreateBuffer(dim, bm.Data)

	var c *tensor.Matrix
	ctx.Enqueue(func(op *Op) {
		c = op.Gemm(a, b)
	})
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	ref := blas.NaiveGemm(am, bm)
	if e := tensor.RMSE(ref, c); e > 0.02 {
		t.Fatalf("Gemm RMSE %v", e)
	}
	if ctx.Elapsed() <= 0 {
		t.Fatal("no virtual time charged")
	}
	if ctx.Energy().TotalJoules() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestAllocDimension(t *testing.T) {
	v := AllocDimension(1, 10)
	if v.Rows != 1 || v.Cols != 10 {
		t.Fatalf("vector dim %+v", v)
	}
	m := AllocDimension(2, 3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("matrix dim %+v", m)
	}
}

func TestAllocDimensionBadPanics(t *testing.T) {
	for _, f := range []func(){
		func() { AllocDimension(3, 1, 2, 3) },
		func() { AllocDimension(1, 1, 2) },
		func() { AllocDimension(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestOperatorSurface(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(2))
	am := tensor.RandUniform(rng, n, n, 0.1, 2)
	bm := tensor.RandUniform(rng, n, n, 0.1, 2)
	ctx := Open(Config{})
	a := ctx.CreateMatrixBuffer(am)
	b := ctx.CreateMatrixBuffer(bm)
	op := ctx.NewOp()

	if out := op.Add(a, b); out == nil || out.Rows != n {
		t.Fatal("Add")
	}
	if out := op.Sub(a, b); out == nil {
		t.Fatal("Sub")
	}
	if out := op.Mul(a, b); out == nil {
		t.Fatal("Mul")
	}
	if out := op.Tanh(a); out == nil {
		t.Fatal("Tanh")
	}
	if out := op.ReLU(a); out == nil {
		t.Fatal("ReLU")
	}
	if v := op.Mean(a); v <= 0 {
		t.Fatal("Mean")
	}
	if v := op.Max(a); v <= 0 {
		t.Fatal("Max")
	}
	if out := op.Crop(a, 0, 0, 8, 8); out.Rows != 8 {
		t.Fatal("Crop")
	}
	if out := op.Ext(a, 128, 128); out.Cols != 128 {
		t.Fatal("Ext")
	}
	k := ctx.CreateMatrixBuffer(tensor.FromSlice(2, 2, []float32{0.25, 0.25, 0.25, 0.25}))
	if out := op.Conv2D(a, k); out == nil {
		t.Fatal("Conv2D")
	}
	x := make([]float32, n)
	if y := op.MatVec(a, x); len(y) != n {
		t.Fatal("MatVec")
	}
	if out := op.GemmFC(a, b); out == nil {
		t.Fatal("GemmFC")
	}
	if op.Err() != nil {
		t.Fatal(op.Err())
	}
}

func TestTimingOnlyMode(t *testing.T) {
	ctx := Open(Config{TimingOnly: true, Devices: 2})
	a := ctx.CreateMatrixBuffer(tensor.New(256, 256))
	b := ctx.CreateMatrixBuffer(tensor.New(256, 256))
	op := ctx.NewOp()
	out := op.Gemm(a, b)
	if op.Err() != nil {
		t.Fatal(op.Err())
	}
	if out == nil || out.Rows != 256 {
		t.Fatal("timing-only Gemm must still return a shaped result")
	}
	if ctx.Elapsed() <= 0 {
		t.Fatal("timing-only mode must charge time")
	}
	ctx.Reset()
	if ctx.Elapsed() != 0 {
		t.Fatal("reset failed")
	}
}

func TestAblationConfigsWireThrough(t *testing.T) {
	ctx := Open(Config{DisableLocality: true, UseTFLiteCompiler: true, OnDeviceReduce: true})
	o := ctx.Config()
	if !o.DisableLocality || !o.UseTFLiteCompiler || !o.OnDeviceReduce || o.Devices != 1 {
		t.Fatalf("ablation flags not honored: %+v", o)
	}
}
