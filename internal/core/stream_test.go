package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/isa"
	"repro/internal/tensor"
)

func TestStreamSerializesOps(t *testing.T) {
	// Operations on one stream must serialize: the second op's work
	// cannot begin before the first completes (paper section 5: "all
	// TPU operations within a task will perform in serial").
	ctx := testCtx(4)
	a := tensor.New(256, 256)
	ba := ctx.CreateMatrixBuffer(a)
	bb := ctx.CreateMatrixBuffer(a.Clone())
	s := ctx.NewOp()
	s.Add(ba, bb)
	mid := s.Now()
	s.Sub(ba, bb)
	if s.Now() <= mid {
		t.Fatal("second op must extend the stream clock")
	}
}

func TestStreamsShareDevicesFairly(t *testing.T) {
	// Two streams with identical work on a 2-device machine should
	// each get a device (FCFS earliest-available).
	ctx := NewContext(Config{Devices: 2, TimingOnly: true})
	a := tensor.ShapeOnly(512, 512)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ctx.NewOp()
			s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(a))
		}()
	}
	wg.Wait()
	e0 := ctx.Pool.Devices[0].Execs()
	e1 := ctx.Pool.Devices[1].Execs()
	if e0 == 0 || e1 == 0 {
		t.Fatalf("device utilization skewed: %d vs %d", e0, e1)
	}
}

func TestDerivedQuantCaches(t *testing.T) {
	ctx := testCtx(1)
	a := tensor.New(64, 64)
	b := ctx.CreateMatrixBuffer(a)
	d1 := ctx.derivedQuant(b, derivedTag{kind: "tag"}, 4096, 0, 1, func(bool) *tensor.MatrixI8 { return tensor.NewI8(64, 64) })
	host1 := ctx.Host.BusyTime()
	d2 := ctx.derivedQuant(b, derivedTag{kind: "tag"}, 4096, 0, 1, func(bool) *tensor.MatrixI8 {
		t.Fatal("builder must not rerun on cache hit")
		return nil
	})
	if d1.key != d2.key {
		t.Fatal("cache must return the same identity")
	}
	if ctx.Host.BusyTime() != host1 {
		t.Fatal("cache hit must not re-charge host time")
	}
	// A different tag builds fresh.
	d3 := ctx.derivedQuant(b, derivedTag{kind: "other"}, 4096, 0, 1, func(bool) *tensor.MatrixI8 { return tensor.NewI8(64, 64) })
	if d3.key == d1.key {
		t.Fatal("distinct tags must get distinct identities")
	}
}

func TestDerivedQuantLaterReady(t *testing.T) {
	ctx := testCtx(1)
	b := ctx.CreateMatrixBuffer(tensor.New(8, 8))
	d1 := ctx.derivedQuant(b, derivedTag{kind: "t"}, 64, 0, 1, func(bool) *tensor.MatrixI8 { return tensor.NewI8(8, 8) })
	// A caller arriving later must see its own ready time, not the
	// cache-fill time.
	later := d1.readyAt + time.Millisecond
	d2 := ctx.derivedQuant(b, derivedTag{kind: "t"}, 64, later, 1, nil)
	if d2.readyAt != later {
		t.Fatalf("readyAt %v want %v", d2.readyAt, later)
	}
}

func TestMixDistributes(t *testing.T) {
	seen := make(map[uint64]bool)
	for base := uint64(1); base <= 64; base++ {
		for idx := uint64(0); idx < 64; idx++ {
			k := mix(base, idx)
			if seen[k] {
				t.Fatalf("collision at base=%d idx=%d", base, idx)
			}
			seen[k] = true
		}
	}
}

func TestQuickStreamErrorsSticky(t *testing.T) {
	f := func(seed int64) bool {
		ctx := testCtx(1)
		ctx.Pool.Devices[0].Fail()
		s := ctx.NewOp()
		a := ctx.CreateMatrixBuffer(tensor.New(4, 4))
		s.ReLU(a)
		if s.Err() == nil {
			return false
		}
		// Every further result must be nil without panicking.
		return s.Add(a, a) == nil && s.MatVec(a, make([]float32, 4)) == nil && s.Crop(a, 0, 0, 1, 1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random shapes, tpuGemm stays within quantization error
// of the float product.
func TestQuickMatMulAccuracy(t *testing.T) {
	f := func(mm, nn, kk uint8, seed int64) bool {
		m, n, k := int(mm)%60+4, int(nn)%60+4, int(kk)%60+4
		rng := rand.New(rand.NewSource(seed))
		a := tensor.RandUniform(rng, m, n, -4, 4)
		b := tensor.RandUniform(rng, n, k, -4, 4)
		ctx := testCtx(1)
		s := ctx.NewOp()
		got := s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		if s.Err() != nil {
			return false
		}
		return tensor.RMSE(refMatMul(a, b), got) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: integer matrices within int8 range multiply exactly
// (the Tensorizer's exactness-preserving calibration).
func TestQuickIntegerGemmExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := tensor.RandPositiveInts(rng, 48, 48, 9)
		b := tensor.RandPositiveInts(rng, 48, 48, 9)
		ctx := testCtx(1)
		s := ctx.NewOp()
		got := s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
		if s.Err() != nil {
			return false
		}
		return got.Equal(refMatMul(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantFlagsAffectPlacementKey: the section 6.1 rule keys on
// input, quantization flags and task, so two instructions on one input
// whose flag words differ take separate affinity entries, and a repeat
// of either returns to its own device.
func TestQuantFlagsAffectPlacementKey(t *testing.T) {
	c := testCtx(2)
	healthy := c.Pool.AppendHealthy(nil)
	p := &placements{}
	in := []inputRef{{key: c.nextKey()}}
	pick := func(flags uint32) int {
		w := &instrWork{instr: isa.Instruction{QuantFlags: flags}, inputs: in, places: p}
		return c.pickDevice(w, healthy).ID
	}
	other := quantFlags + 1
	first := pick(quantFlags)
	second := pick(other)
	if len(p.tab) != 2 {
		t.Fatalf("%d affinity entries for one input under two flag words, want 2", len(p.tab))
	}
	if pick(quantFlags) != first || pick(other) != second || len(p.tab) != 2 {
		t.Fatal("a repeated (input, flags) key left its device")
	}
}

func TestKSplitGemmLargeInner(t *testing.T) {
	// Inner dimension big enough to force multi-segment execution;
	// functional result must still match the reference.
	rng := rand.New(rand.NewSource(23))
	a := tensor.RandUniform(rng, 24, 9000, -1, 1)
	b := tensor.RandUniform(rng, 9000, 16, -1, 1)
	ctx := testCtx(1)
	s := ctx.NewOp()
	got := s.Gemm(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if e := tensor.RMSE(refMatMul(a, b), got); e > 0.02 {
		t.Fatalf("k-split GEMM RMSE %v", e)
	}
}

func TestStatsTrackResidency(t *testing.T) {
	ctx := testCtx(1)
	a := tensor.New(512, 512)
	ba := ctx.CreateMatrixBuffer(a)
	s := ctx.NewOp()
	x := make([]float32, 512)
	s.MatVec(ba, x)
	first := ctx.Stats()
	if first.ResidencyMisses == 0 {
		t.Fatal("first iteration must miss")
	}
	s.MatVec(ba, x)
	second := ctx.Stats()
	if second.ResidencyHits <= first.ResidencyHits {
		t.Fatal("second iteration must hit resident weight blocks")
	}
	if second.HitRate <= 0 || second.HitRate >= 1 {
		t.Fatalf("hit rate %v", second.HitRate)
	}
	if len(second.PerDevice) != 1 || second.PerDevice[0].Execs == 0 {
		t.Fatalf("per-device stats %+v", second.PerDevice)
	}
}
