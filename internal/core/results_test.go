package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// sameMemory reports whether a and b start at the same backing array.
func sameMemory(a, b *tensor.Matrix) bool { return &a.Data[:1][0] == &b.Data[:1][0] }

func freeLen(c *Context) int {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	return len(c.free)
}

// TestReleaseBacksNextResult: a released operator result backs the next
// result that fits, and Matrix takes the smallest released matrix that
// fits, not the first.
func TestReleaseBacksNextResult(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	rng := rand.New(rand.NewSource(3))
	a := ctx.CreateMatrixBuffer(tensor.RandUniform(rng, 40, 30, -2, 2))
	b := ctx.CreateMatrixBuffer(tensor.RandUniform(rng, 40, 30, -2, 2))
	s := ctx.NewOp()
	first := s.Add(a, b)
	want := s.Add(a, b).Clone()
	ctx.Release(first)
	got := s.Add(a, b)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if !sameMemory(got, first) {
		t.Fatal("the result after Release did not reuse the released matrix")
	}
	if !got.Equal(want) {
		t.Fatal("a result in recycled memory differs from a fresh one")
	}
	if n := freeLen(ctx); n != 0 {
		t.Fatalf("free list holds %d after the reuse, want 0", n)
	}

	big, small, tiny := ctx.Matrix(20, 20), ctx.Matrix(10, 12), ctx.Matrix(2, 2)
	for _, m := range []*tensor.Matrix{big, small, tiny} {
		ctx.Release(m)
	}
	if m := ctx.Matrix(11, 10); !sameMemory(m, small) || m.Rows != 11 || m.Cols != 10 || m.Stride != 10 || len(m.Data) != 110 {
		t.Fatalf("Matrix(11, 10) = %dx%d stride %d len %d, want the 120-element matrix reshaped", m.Rows, m.Cols, m.Stride, len(m.Data))
	}
	if m := ctx.Matrix(15, 15); !sameMemory(m, big) {
		t.Fatal("Matrix(15, 15) did not take the only matrix that fits")
	}
	if m := ctx.Matrix(20, 20); sameMemory(m, tiny) || len(m.Data) != 400 {
		t.Fatal("Matrix(20, 20) took a matrix too small for it")
	}
	if m := ctx.Matrix(0, 5); m.Elems() != 0 || freeLen(ctx) != 1 {
		t.Fatal("an empty Matrix took memory from the free list")
	}
}

// TestReleaseNoOps: nil, a view, a matrix already on the list, a
// shape-only descriptor, and anything in timing-only mode never reach
// the free list.
func TestReleaseNoOps(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	m := ctx.Matrix(8, 8)
	ctx.Release(nil)
	ctx.Release(m.View(1, 1, 4, 4))
	ctx.Release(tensor.ShapeOnly(8, 8))
	if n := freeLen(ctx); n != 0 {
		t.Fatalf("free list holds %d after no-op releases, want 0", n)
	}
	ctx.Release(m)
	ctx.Release(m)
	ctx.Release(tensor.FromSlice(2, 32, m.Data))
	if n := freeLen(ctx); n != 1 {
		t.Fatalf("free list holds %d after releasing one matrix three times, want 1", n)
	}

	tctx := NewContext(Config{Devices: 1, TimingOnly: true})
	defer tctx.Close()
	if m := tctx.Matrix(8, 8); m.Data != nil {
		t.Fatal("timing-only Matrix materialized data")
	}
	tctx.Release(tensor.New(8, 8))
	if n := freeLen(tctx); n != 0 {
		t.Fatalf("timing-only free list holds %d, want 0", n)
	}
}

// TestFreeListBound: the list never holds more than maxFreeResults
// matrices, and when full keeps the largest.
func TestFreeListBound(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	const extra = 5
	for i := 1; i <= maxFreeResults+extra; i++ {
		ctx.Release(tensor.New(1, i))
		if n := freeLen(ctx); n > maxFreeResults {
			t.Fatalf("free list holds %d, bound %d", n, maxFreeResults)
		}
	}
	ctx.Release(tensor.New(1, 1)) // smaller than everything kept: dropped
	if n := freeLen(ctx); n != maxFreeResults {
		t.Fatalf("free list holds %d, want %d", n, maxFreeResults)
	}
	ctx.freeMu.Lock()
	for _, m := range ctx.free {
		if cap(m.Data) <= extra {
			t.Errorf("full list kept a %d-element matrix over a larger one", cap(m.Data))
		}
	}
	ctx.freeMu.Unlock()
}

// TestCloseDropsFreeList: the free list dies with the context.
func TestCloseDropsFreeList(t *testing.T) {
	ctx := testCtx(1)
	ctx.Release(ctx.Matrix(16, 16))
	if n := freeLen(ctx); n != 1 {
		t.Fatalf("free list holds %d, want 1", n)
	}
	ctx.Close()
	if n := freeLen(ctx); n != 0 {
		t.Fatalf("free list holds %d after Close, want 0", n)
	}
}

// TestReleaseHammer runs concurrent tasks that allocate operator
// results and Matrix scratch, write them, check nobody else wrote them,
// and release them. Under -race (make flake-gate runs it twenty times)
// a matrix handed to two owners at once, or a list update outside the
// lock, fails here.
func TestReleaseHammer(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	rng := rand.New(rand.NewSource(11))
	a := ctx.CreateMatrixBuffer(tensor.RandUniform(rng, 24, 24, -2, 2))
	b := ctx.CreateMatrixBuffer(tensor.RandUniform(rng, 24, 24, -2, 2))
	const tasks, rounds = 16, 20
	var mu sync.Mutex
	var failed string
	fail := func(msg string) {
		mu.Lock()
		failed = msg
		mu.Unlock()
	}
	for k := 0; k < tasks; k++ {
		mark := float32(k + 1)
		ctx.Enqueue(func(s *Stream) {
			for r := 0; r < rounds; r++ {
				out := s.Mul(a, b)
				if out == nil {
					return
				}
				scratch := ctx.Matrix(1+r%7, 24)
				for _, m := range []*tensor.Matrix{out, scratch} {
					for i := range m.Data {
						m.Data[i] = mark
					}
				}
				runtime.Gosched()
				for _, m := range []*tensor.Matrix{out, scratch} {
					for _, v := range m.Data {
						if v != mark {
							fail("a matrix had two owners at once")
						}
					}
				}
				ctx.Release(out)
				ctx.Release(scratch)
			}
		})
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	if failed != "" {
		t.Fatal(failed)
	}
	if n := freeLen(ctx); n > maxFreeResults {
		t.Fatalf("free list holds %d, bound %d", n, maxFreeResults)
	}
}
