package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/timing"
)

// wholeForms lists the int8 matrices b keeps: its own form and its
// derived forms (a joint-scale form, a conv2D layout).
func wholeForms(b *Buffer) []*tensor.MatrixI8 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var qs []*tensor.MatrixI8
	if b.q != nil {
		qs = append(qs, b.q)
	}
	for _, d := range b.derivedForms {
		if d.q != nil {
			qs = append(qs, d.q)
		}
	}
	return qs
}

// data is m's elements, nil for a failed operator's nil result.
func data(m *tensor.Matrix) []float32 {
	if m == nil {
		return nil
	}
	return m.Data
}

// tileOps are the operators whose instructions quantize the windows
// they ship, each over the buffer under test (200x300, several tiles
// per operator) and fixed partner operands.
func tileOps(ctx *Context, rng *rand.Rand) map[string]func(s *Stream, b *Buffer) []float32 {
	other := ctx.NewBuffer(tensor.RandUniform(rng, 200, 300, -7, 7))
	w := ctx.NewBuffer(tensor.RandUniform(rng, 300, 40, -1, 1))
	k := ctx.NewBuffer(tensor.RandUniform(rng, 3, 3, -1, 1))
	x := make([]float32, 300)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	return map[string]func(s *Stream, b *Buffer) []float32{
		"Add":           func(s *Stream, b *Buffer) []float32 { return data(s.Add(b, other)) },
		"Sub":           func(s *Stream, b *Buffer) []float32 { return data(s.Sub(other, b)) },
		"Mul":           func(s *Stream, b *Buffer) []float32 { return data(s.MulPair(b, other)) },
		"Tanh":          func(s *Stream, b *Buffer) []float32 { return data(s.Tanh(b)) },
		"ReLU":          func(s *Stream, b *Buffer) []float32 { return data(s.ReLU(b)) },
		"Mean":          func(s *Stream, b *Buffer) []float32 { return []float32{s.Mean(b)} },
		"Max":           func(s *Stream, b *Buffer) []float32 { return []float32{s.MaxReduce(b)} },
		"Conv2D":        func(s *Stream, b *Buffer) []float32 { return data(s.Conv2D(b, k)) },
		"Conv2DStrided": func(s *Stream, b *Buffer) []float32 { return data(s.Conv2DStrided(b, k, 2, 3)) },
		"MatVec":        func(s *Stream, b *Buffer) []float32 { return s.MatVec(b, x) },
		"MatMul":        func(s *Stream, b *Buffer) []float32 { return data(s.MatMul(b, w)) },
	}
}

// TestWholeFormOnSecondUse: a buffer's first use builds no int8 matrix
// (each instruction quantizes the window it ships), its second builds
// the whole form and its third reuses it. All three results are
// bit-identical, on the fast kernels and on RefKernels.
func TestWholeFormOnSecondUse(t *testing.T) {
	a := tensor.RandUniform(rand.New(rand.NewSource(3)), 200, 300, -5, 5)
	want := map[string][]float32{}
	for _, ref := range []bool{false, true} {
		ctx := NewContext(Config{Devices: 2, RefKernels: ref})
		for name, run := range tileOps(ctx, rand.New(rand.NewSource(4))) {
			b := ctx.NewBuffer(a)
			var kept []*tensor.MatrixI8
			for use := 1; use <= 3; use++ {
				s := ctx.NewStream()
				got := run(s, b)
				if s.Err() != nil {
					t.Fatalf("%s use %d: %v", name, use, s.Err())
				}
				forms := wholeForms(b)
				switch {
				case use == 1 && len(forms) != 0:
					t.Errorf("%s: the first use built %d whole int8 form(s)", name, len(forms))
				case use == 2 && len(forms) != 1:
					t.Errorf("%s: the second use left %d whole int8 forms, want 1", name, len(forms))
				case use == 3 && !slices.Equal(forms, kept):
					t.Errorf("%s: the third use rebuilt the whole form", name)
				}
				kept = forms
				if w, ok := want[name]; !ok {
					want[name] = got
				} else if !slices.Equal(got, w) {
					t.Errorf("%s (RefKernels %v) use %d: result differs from the fast kernels' first use", name, ref, use)
				}
			}
		}
		ctx.Close()
	}
}

// preciseOps are the dual-portion operators over the buffer under test
// (200x300, as tileOps), as the left operand and as the right one.
func preciseOps(ctx *Context, rng *rand.Rand) map[string]func(s *Stream, b *Buffer) []float32 {
	w := ctx.NewBuffer(tensor.RandUniform(rng, 300, 40, -1, 1))
	v := ctx.NewBuffer(tensor.RandUniform(rng, 40, 200, -1, 1))
	x := make([]float32, 300)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	return map[string]func(s *Stream, b *Buffer) []float32{
		"MatVecPrecise":      func(s *Stream, b *Buffer) []float32 { return s.MatVecPrecise(b, x) },
		"MatMulPrecise":      func(s *Stream, b *Buffer) []float32 { return data(s.MatMulPrecise(b, w)) },
		"MatMulPreciseRight": func(s *Stream, b *Buffer) []float32 { return data(s.MatMulPrecise(v, b)) },
	}
}

// portionCodes lists the int8 codes b's split portions hold.
func portionCodes(b *Buffer) []*tensor.MatrixI8 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var qs []*tensor.MatrixI8
	if sp := b.split; sp != nil {
		for _, p := range []*Buffer{sp.hi, sp.lo} {
			if p.q != nil {
				qs = append(qs, p.q)
			}
		}
	}
	return qs
}

// TestSplitCodesOnSecondUse is TestWholeFormOnSecondUse for the
// dual-portion split: after one precise operator on a fresh buffer its
// portions hold no codes, after a second they hold one kept pair and a
// third reuses that pair. All three results are bit-identical, on the
// fast kernels and on RefKernels.
func TestSplitCodesOnSecondUse(t *testing.T) {
	a := tensor.RandUniform(rand.New(rand.NewSource(3)), 200, 300, -5, 5)
	want := map[string][]float32{}
	for _, ref := range []bool{false, true} {
		ctx := NewContext(Config{Devices: 2, RefKernels: ref})
		for name, run := range preciseOps(ctx, rand.New(rand.NewSource(4))) {
			b := ctx.NewBuffer(a)
			var kept []*tensor.MatrixI8
			for use := 1; use <= 3; use++ {
				s := ctx.NewStream()
				got := run(s, b)
				if s.Err() != nil {
					t.Fatalf("%s use %d: %v", name, use, s.Err())
				}
				codes := portionCodes(b)
				switch {
				case use == 1 && len(codes) != 0:
					t.Errorf("%s: the first use left %d portion code matrices", name, len(codes))
				case use == 2 && len(codes) != 2:
					t.Errorf("%s: the second use left %d portion code matrices, want 2", name, len(codes))
				case use == 3 && !slices.Equal(codes, kept):
					t.Errorf("%s: the third use rebuilt the portions' codes", name)
				}
				kept = codes
				if w, ok := want[name]; !ok {
					want[name] = got
				} else if !slices.Equal(got, w) {
					t.Errorf("%s (RefKernels %v) use %d: result differs from the fast kernels' first use", name, ref, use)
				}
			}
		}
		ctx.Close()
	}
}

// TestTimingOnlyMatchesFunctional: at each operator's test shapes (the
// tile operators and the precise ones above), a timing-only context
// charges the virtual makespan a functional one does, over a first and
// a second use of the buffer under test. This is what lets a
// timing-only paper-scale number stand for a functional one.
func TestTimingOnlyMatchesFunctional(t *testing.T) {
	a := tensor.RandUniform(rand.New(rand.NewSource(6)), 200, 300, -5, 5)
	ops := func(ctx *Context) map[string]func(s *Stream, b *Buffer) []float32 {
		all := tileOps(ctx, rand.New(rand.NewSource(7)))
		for name, run := range preciseOps(ctx, rand.New(rand.NewSource(8))) {
			all[name] = run
		}
		return all
	}
	for name := range ops(testCtx(1)) {
		var elapsed [2]timing.Duration
		for i, timingOnly := range []bool{false, true} {
			ctx := NewContext(Config{Devices: 2, TimingOnly: timingOnly})
			run := ops(ctx)[name]
			b := ctx.NewBuffer(a)
			for use := 0; use < 2; use++ {
				s := ctx.NewStream()
				run(s, b)
				if s.Err() != nil {
					t.Fatalf("%s (timing-only %v): %v", name, timingOnly, s.Err())
				}
			}
			elapsed[i] = ctx.Elapsed()
			ctx.Close()
		}
		if elapsed[0] != elapsed[1] {
			t.Errorf("%s: timing-only makespan %v, functional %v", name, elapsed[1], elapsed[0])
		}
	}
}

// TestConcurrentFirstUse: two tasks use one fresh buffer at once (run
// under -race), so one task's instructions quantize windows of the host
// data while the other builds the whole form. Both compute what one
// task alone computes.
func TestConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandUniform(rng, 200, 300, -5, 5)
	ctx := testCtx(2)
	defer ctx.Close()
	ops := tileOps(ctx, rng)
	chain := func(s *Stream, b *Buffer) [][]float32 {
		var out [][]float32
		for _, name := range []string{"Add", "Tanh", "Mul", "Conv2D", "MatVec", "MatMul", "Mean"} {
			out = append(out, ops[name](s, b))
		}
		return out
	}
	solo := ctx.NewStream()
	want := chain(solo, ctx.NewBuffer(a))
	if solo.Err() != nil {
		t.Fatal(solo.Err())
	}
	for round := 0; round < 3; round++ {
		b := ctx.NewBuffer(a)
		var got [2][][]float32
		t0 := ctx.Enqueue(func(s *Stream) { got[0] = chain(s, b) })
		t1 := ctx.Enqueue(func(s *Stream) { got[1] = chain(s, b) })
		if err := t0.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := t1.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for j := range want {
				if !slices.Equal(got[i][j], want[j]) {
					t.Fatalf("round %d, task %d, op %d: result differs from a single task's", round, i, j)
				}
			}
		}
	}
}
