package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// Steady-state allocation regression tests: the tensor buffer pools
// exist so the plan→submit→collect path stops allocating fresh tile
// buffers per instruction, and these budgets pin that property. Each
// op's allocs/op must stay roughly proportional to its instruction
// count (plan bookkeeping, quantized operands, the returned result) —
// NOT to instruction count × tile buffers, which is what the
// pre-pooling substrate paid. The budgets carry ~2x headroom over
// measured steady state so they catch pooling rot (an accidental
// revert to per-tile make() calls blows through them immediately)
// without flaking on allocator internals.
func TestGemmStreamAllocBudget(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	rng := rand.New(rand.NewSource(7))
	const n = 256
	a := tensor.RandUniform(rng, n, n, -4, 4)
	b := tensor.RandUniform(rng, n, n, -4, 4)
	ba, bb := ctx.NewBuffer(a), ctx.NewBuffer(b)
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*8 - 4
	}

	// One untimed pass per op primes the buffer pools, quantization
	// LUTs, and the lazily spawned dispatch workers.
	warm := ctx.NewStream()
	_ = warm.MatVec(ba, x)
	_ = warm.MatMul(ba, bb)
	_ = warm.MatMulFC(ba, bb)
	if warm.Err() != nil {
		t.Fatal(warm.Err())
	}

	cases := []struct {
		name   string
		budget float64
		run    func(s *Stream)
	}{
		// MatVec: quantize x once into a pooled int8 vector, one FC
		// instruction per row chunk with a pooled int32 part buffer,
		// a pooled wide accumulator, one []float32 result.
		{"MatVec", 40, func(s *Stream) { _ = s.MatVec(ba, x) }},
		// MatMul: GEMM-as-strided-conv2D sweep; windows/kernels are
		// packed per segment, per-rectangle outputs come from the
		// int32 pool and return once dequantized into the result; the
		// plan (instruction slice, operand lists, batch tracker) is
		// recycled storage.
		{"MatMul", 80, func(s *Stream) { _ = s.MatMul(ba, bb) }},
		// MatMulFC: one FC instruction per (row-chunk, column) pair —
		// 512 instructions here, so per-instruction bookkeeping (plan
		// entries, closures) dominates; the wide CPU-side
		// accumulators, the int8 column staging, the int32 part
		// buffers and the operand lists are pooled.
		// This is the paper's deliberately FC-bound comparison path,
		// so the budget scales with instruction count, not tiles.
		{"MatMulFC", 3200, func(s *Stream) { _ = s.MatMulFC(ba, bb) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(5, func() {
				s := ctx.NewStream()
				tc.run(s)
				if s.Err() != nil {
					t.Fatal(s.Err())
				}
			})
			budget := tc.budget
			if tensor.RaceEnabled {
				// sync.Pool drops a share of Puts under the race
				// detector, so part of the pooled scratch is allocated
				// again.
				budget *= 1.5
			}
			t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.name, got, budget)
			if got > budget {
				t.Errorf("%s allocates %.0f per op, budget %.0f — did a pooled tile path regress to make()?",
					tc.name, got, budget)
			}
		})
	}
}

// TestGemmByteBudget weighs what TestGemmStreamAllocBudget counts: one
// 512x512 tpuGemm over a fresh activation buffer and a resident weight
// buffer may allocate its 1 MiB result and bookkeeping — no int8 form of
// the fresh operand (used once, it is quantized row chunk by row chunk
// into pooled scratch), no wide accumulator (one segment: the closures
// dequantize straight into the result) and no copy of the operand's
// conv2D layout. Allocating the fresh operand's whole int8 form again
// costs 256 KiB.
func TestGemmByteBudget(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	ctx := testCtx(2)
	defer ctx.Close()
	rng := rand.New(rand.NewSource(7))
	const n = 512
	a := tensor.RandUniform(rng, n, n, 0, 1)
	bb := ctx.NewBuffer(tensor.RandUniform(rng, n, n, 0, 1))
	got := bytesPerCall(func() {
		s := ctx.NewStream()
		if out := s.MatMul(ctx.NewBuffer(a), bb); out == nil || s.Err() != nil {
			t.Fatal("MatMul failed:", s.Err())
		}
	})
	const budget = 1120 << 10
	t.Logf("%.0f KiB per 512x512 GEMM (budget %d KiB)", got/1024, budget>>10)
	if got > budget {
		t.Errorf("%.0f KiB per GEMM, budget %d KiB — is an int8 form, the wide accumulator or the conv layout copy back?", got/1024, budget>>10)
	}
}

// bytesPerCall returns the fewest bytes one call of f allocates, over
// calls after a warm-up. Taking the fewest keeps a call whose pooled
// scratch sat in another P's private slot, or was dropped by the
// collector, from failing a budget; a regression that allocates on
// every call still shows.
func bytesPerCall(f func()) float64 {
	f()
	var before, after runtime.MemStats
	best := math.Inf(1)
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return best
}

// TestPreciseAndPairwiseByteBudget weighs the Tensorizer's host passes
// where they used to build throwaway forms. MatVecPrecise over a fresh
// 65536x10 buffer (BlackScholes' feature matrix) may allocate the
// product it returns (256 KiB; the two partial products come from the
// context's free list and go back to it) and bookkeeping. Used once,
// the buffer's split leaves no codes behind: they are pooled scratch
// that goes back when the operator ends, so one portion's int8 codes
// kept again cost 640 KiB, a partial product not handed back 256 KiB
// and a float32 portion 2.5 MiB. A pairwise Mul over two fresh 256x256
// buffers may allocate its 256 KiB result and bookkeeping: used once,
// its operands are quantized tile by tile into pooled scratch, and a
// whole int8 form of either costs 64 KiB.
func TestPreciseAndPairwiseByteBudget(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	ctx := testCtx(2)
	defer ctx.Close()
	rng := rand.New(rand.NewSource(31))
	feat := tensor.RandUniform(rng, 65536, 10, -1, 1)
	coef := make([]float32, 10)
	for i := range coef {
		coef[i] = rng.Float32()*2 - 1
	}
	a := tensor.RandUniform(rng, 256, 256, -3, 3)
	b := tensor.RandUniform(rng, 256, 256, -3, 3)
	for _, tc := range []struct {
		name   string
		budget int
		call   func(s *Stream) bool
	}{
		{"MatVecPrecise", 448 << 10, func(s *Stream) bool { return s.MatVecPrecise(ctx.NewBuffer(feat), coef) != nil }},
		{"Mul", 288 << 10, func(s *Stream) bool { return s.MulPair(ctx.NewBuffer(a), ctx.NewBuffer(b)) != nil }},
	} {
		got := bytesPerCall(func() {
			s := ctx.NewStream()
			if !tc.call(s) || s.Err() != nil {
				t.Fatal(tc.name, "failed:", s.Err())
			}
		})
		t.Logf("%s: %.0f KiB per call (budget %d KiB)", tc.name, got/1024, tc.budget>>10)
		if got > float64(tc.budget) {
			t.Errorf("%s: %.0f KiB per call, budget %d KiB — is a float32 portion, an int8 form or a partial product back?", tc.name, got/1024, tc.budget>>10)
		}
	}
}
