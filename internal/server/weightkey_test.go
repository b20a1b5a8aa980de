package server

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// TestWeightKeySensitivity: the key must change when any dimension or
// any element's bit pattern changes — it is the cluster-wide placement
// identity, so an insensitive hash would co-locate distinct models and
// (worse) let the batcher's byte-compare fallback carry the whole
// collision load.
func TestWeightKeySensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := tensor.RandUniform(rng, 8, 8, -1, 1)
	k0 := WeightKey(base)

	if got := WeightKey(base.Clone()); got != k0 {
		t.Fatalf("identical matrices hash differently: %x vs %x", got, k0)
	}

	elem := base.Clone()
	elem.Data[17] += 1e-3
	if WeightKey(elem) == k0 {
		t.Fatal("single-element change did not change the key")
	}

	// Same backing data, transposed shape header: 8x8 vs 4x16 with
	// identical element stream must not collide (the dims are hashed).
	flat := tensor.FromSlice(4, 16, base.Clone().Data)
	if WeightKey(flat) == k0 {
		t.Fatal("reshaped matrix with identical data did not change the key")
	}
}

// TestWeightKeyNaNBitSemantics: keys and equality operate on float bit
// patterns, not IEEE comparison — two NaN-holding matrices with the
// same bits must key and compare equal (a NaN != NaN equality rule
// would make a cached weight entry unreachable forever).
func TestWeightKeyNaNBitSemantics(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001)
	a := tensor.FromSlice(1, 2, []float32{nan, 1})
	b := tensor.FromSlice(1, 2, []float32{nan, 1})
	if WeightKey(a) != WeightKey(b) {
		t.Fatal("bit-identical NaN matrices hash differently")
	}
	if !WeightEqual(a, b) {
		t.Fatal("bit-identical NaN matrices compare unequal")
	}
	c := tensor.FromSlice(1, 2, []float32{math.Float32frombits(0x7fc00002), 1})
	if WeightEqual(a, c) {
		t.Fatal("different NaN payloads compare equal")
	}
}

// TestWeightEqualShapeMismatch guards the collision fallback itself:
// equality must fail fast on shape mismatch rather than index out of
// range.
func TestWeightEqualShapeMismatch(t *testing.T) {
	a := tensor.New(2, 3)
	b := tensor.New(3, 2)
	if WeightEqual(a, b) {
		t.Fatal("different shapes compare equal")
	}
}

// TestWeightKeyCollisionFallback is the collision regression test for
// the promoted shared implementation: two *different* weight matrices
// forced under one batch key (a forged bhash — exactly what an
// adversarially crafted FNV collision produces) must not batch
// together or poison the weight cache; the byte-compare fallback sends
// the second matrix down the unbatched path and both requests still
// compute against their own weights.
func TestWeightKeyCollisionFallback(t *testing.T) {
	srv := New(Config{Devices: 1})
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)

	rng := rand.New(rand.NewSource(11))
	b1 := tensor.RandUniform(rng, 8, 8, -1, 1)
	b2 := tensor.RandUniform(rng, 8, 8, -1, 1)
	key := batchKey{n: 8, k: 8, bhash: 0xdecafbad} // same forged key for both

	a := tensor.RandUniform(rng, 4, 8, -1, 1)
	newCall := func() *gemmCall {
		return &gemmCall{a: a, done: make(chan callResult, 1)}
	}
	// The first call runs at once and is held there, so the second
	// opens the key's pending group — the group a collider meets.
	call0, call1 := newCall(), newCall()
	if !srv.bat.submit(key, b1.Clone(), call0) {
		t.Fatal("first submit under the key must run")
	}
	gate.waitRunning(t)
	if !srv.bat.submit(key, b1.Clone(), call1) {
		t.Fatal("same-weight submit must join the pending group")
	}
	if srv.bat.submit(key, b2, newCall()) {
		t.Fatal("hash-colliding weights must be refused by the batcher")
	}
	gate.open()

	for _, c := range []*gemmCall{call0, call1} {
		res := <-c.done
		if res.err != nil {
			t.Fatalf("batched call failed: %v", res.err)
		}
		if rmse := tensor.RMSE(blas.NaiveGemm(a, b1), res.m); rmse > 0.05 {
			t.Fatalf("batched result RMSE %v against its own weights", rmse)
		}
	}

	// The weight cache must also survive a forged-key hit: a lookup
	// with colliding weights gets a fresh buffer, never b1's.
	if buf, _ := srv.bat.weightBuffer(key, b2); buf == nil {
		t.Fatal("collision-safe weightBuffer returned nil")
	}
}
