package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// sameBits reports the first element where got and want differ in
// their float32 bits, so -0 differs from +0. Any NaN matches any NaN:
// Go leaves a NaN's sign and payload unspecified, and the compiler may
// commute an addition of two NaNs, which picks the other payload.
func sameBits(got, want *tensor.Matrix) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				return fmt.Errorf("(%d,%d) = %v (%#08x), want %v (%#08x)", i, j, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
	return nil
}

// withZeros zeroes about a quarter of m's elements, the elements the
// earlier blocked kernel skipped.
func withZeros(rng *rand.Rand, m *tensor.Matrix) *tensor.Matrix {
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// refBlockedGemm is the blocked float32 loop Gemm replaced: 64-wide
// cache blocks, the depth ascending per element, zeros of A skipped.
// It pins Gemm's bits where NaiveGemm cannot: against a B holding Inf
// or NaN, where a skipped zero and a zero times Inf differ.
func refBlockedGemm(a, b *tensor.Matrix) *tensor.Matrix {
	const blk = 64
	m, n, k := a.Rows, a.Cols, b.Cols
	out := tensor.New(m, k)
	for i0 := 0; i0 < m; i0 += blk {
		for l0 := 0; l0 < n; l0 += blk {
			for j0 := 0; j0 < k; j0 += blk {
				for i := i0; i < min(i0+blk, m); i++ {
					ar, or := a.Row(i), out.Row(i)
					for l := l0; l < min(l0+blk, n); l++ {
						av := ar[l]
						if av == 0 {
							continue
						}
						br := b.Row(l)
						for j := j0; j < min(j0+blk, k); j++ {
							or[j] += av * br[j]
						}
					}
				}
			}
		}
	}
	return out
}

func TestBlockedGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := withZeros(rng, tensor.RandUniform(rng, 71, 90, -3, 3))
	b := tensor.RandUniform(rng, 90, 110, -3, 3)
	if err := sameBits(Gemm(a, b), NaiveGemm(a, b)); err != nil {
		t.Fatal(err)
	}
	// A strided view of A, and an odd row count and column tail.
	av := a.View(2, 5, 37, 80)
	bv := b.View(5, 0, 80, 100)
	if err := sameBits(Gemm(av, bv), NaiveGemm(av, bv)); err != nil {
		t.Fatal("views:", err)
	}
}

func TestQuickBlockedGemmEqualsNaive(t *testing.T) {
	f := func(m, n, k uint8, seed int64) bool {
		rm, rn, rk := int(m)%40+1, int(n)%80+1, int(k)%40+1
		rng := rand.New(rand.NewSource(seed))
		a := withZeros(rng, tensor.RandUniform(rng, rm, rn, -2, 2))
		b := tensor.RandUniform(rng, rn, rk, -2, 2)
		return sameBits(Gemm(a, b), NaiveGemm(a, b)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmNonFiniteKeepsZeroSkip checks the panels that hold Inf or
// NaN: a zero of A still contributes nothing there, as in the blocked
// loop, where NaiveGemm's 0*Inf makes NaN.
func TestGemmNonFiniteKeepsZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := withZeros(rng, tensor.RandUniform(rng, 33, 70, -2, 2))
	b := tensor.RandUniform(rng, 70, 29, -2, 2)
	nan := float32(math.NaN())
	for i, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), nan, 0, nan} {
		b.Set(rng.Intn(70), 3*i+rng.Intn(3), v)
	}
	got := Gemm(a, b)
	if err := sameBits(got, refBlockedGemm(a, b)); err != nil {
		t.Fatal(err)
	}
	if sameBits(got, NaiveGemm(a, b)) == nil {
		t.Fatal("no element tells a skipped zero from 0*Inf: the case tests nothing")
	}
}

// TestGemmSmallAllocatesOnlyResult checks that a product with a
// shallow panel packs it on the stack and a deeper one borrows pooled
// scratch: either way Gemm allocates what tensor.New does.
func TestGemmSmallAllocatesOnlyResult(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, n := range []int{8, 32, 100} {
		rng := rand.New(rand.NewSource(5))
		a := tensor.RandUniform(rng, n, n, -1, 1)
		b := tensor.RandUniform(rng, n, n, -1, 1)
		want := testing.AllocsPerRun(20, func() { tensor.New(n, n) })
		if got := testing.AllocsPerRun(20, func() { Gemm(a, b) }); got != want {
			t.Errorf("%d³ Gemm: %v allocations, tensor.New: %v", n, got, want)
		}
	}
}

func TestGemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(tensor.New(2, 3), tensor.New(4, 2))
}

func TestMatVec(t *testing.T) {
	a := tensor.FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	y := MatVec(a, []float32{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("got %v", y)
	}
}

func TestInt8GemmExactForSmallInts(t *testing.T) {
	// Table 5: RMSE is 0.00 for maximum values up to 16.
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandPositiveInts(rng, 128, 128, 16)
	b := tensor.RandPositiveInts(rng, 128, 128, 16)
	got := Int8Gemm(a, b)
	want := NaiveGemm(a, b)
	if e := tensor.RMSE(want, got); e > 1e-6 {
		t.Fatalf("int8 GEMM should be exact for max<=16, RMSE %v", e)
	}
}

func TestInt8GemmOverflowsForLargeInts(t *testing.T) {
	// Table 5: RMSE reaches 0.47 at max 32 and 0.97 at max 128 because
	// the 16-bit accumulation saturates.
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandPositiveInts(rng, 256, 256, 32)
	b := tensor.RandPositiveInts(rng, 256, 256, 32)
	e32 := tensor.RMSE(NaiveGemm(a, b), Int8Gemm(a, b))
	if e32 < 0.1 {
		t.Fatalf("max=32 should overflow noticeably, RMSE %v", e32)
	}
	a = tensor.RandPositiveInts(rng, 256, 256, 128)
	b = tensor.RandPositiveInts(rng, 256, 256, 128)
	e128 := tensor.RMSE(NaiveGemm(a, b), Int8Gemm(a, b))
	if e128 < e32 {
		t.Fatalf("saturation damage must grow with range: %v vs %v", e128, e32)
	}
	if e128 < 0.5 {
		t.Fatalf("max=128 should be badly saturated, RMSE %v", e128)
	}
}

// refInt8Gemm is the FBGEMM-style loop Int8Gemm keeps as its
// semantics: every product added serially, in ascending depth, into a
// saturating int16 register that restarts at each 256-deep block.
func refInt8Gemm(a, b *tensor.Matrix) *tensor.Matrix {
	pa, pb := quant.ParamsFor(a), quant.ParamsFor(b)
	qa, qb := quant.QuantizeWith(a, pa), quant.QuantizeWith(b, pb)
	m, n, k := a.Rows, a.Cols, b.Cols
	out := tensor.New(m, k)
	inv := 1 / (float64(pa.Scale) * float64(pb.Scale))
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			var wide int32
			for l0 := 0; l0 < n; l0 += acc16Depth {
				var acc int16
				for l := l0; l < min(l0+acc16Depth, n); l++ {
					acc = satAddI16(acc, int16(qa.At(i, l))*int16(qb.At(l, j)))
				}
				wide += int32(acc)
			}
			out.Set(i, j, float32(float64(wide)*inv))
		}
	}
	return out
}

// TestInt8GemmMatchesSerialSaturation pins Int8Gemm to the serial
// saturating loop over depths that are not whole blocks and over
// inputs whose blocks are one-signed and exact (Table 5's small
// positive integers), one-signed and saturating (its large ones),
// signed (every block mixed, where saturation order matters), and
// one-signed in some rows and columns but not others.
func TestInt8GemmMatchesSerialSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// negate flips the sign of every element where neg(i, j) holds.
	negate := func(m *tensor.Matrix, neg func(i, j int) bool) *tensor.Matrix {
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if neg(i, j) {
					m.Set(i, j, -m.At(i, j))
				}
			}
		}
		return m
	}
	pos := func(max int) func(r, c int) *tensor.Matrix {
		return func(r, c int) *tensor.Matrix { return tensor.RandPositiveInts(rng, r, c, max) }
	}
	for _, n := range []int{1, 100, 255, 256, 257, 600} {
		for _, c := range []struct {
			name string
			gen  func(r, c int) *tensor.Matrix
			negA func(i, l int) bool
			negB func(l, j int) bool
		}{
			{name: "positive2", gen: pos(2)},
			{name: "positive16", gen: pos(16)},
			{name: "positive32", gen: pos(32)},
			{name: "positive128", gen: pos(128)},
			{name: "signed", gen: func(r, c int) *tensor.Matrix { return tensor.RandUniform(rng, r, c, -100, 100) }},
			// Every third row of A and column of B is negative.
			{name: "negativeRowsCols", gen: pos(127),
				negA: func(i, l int) bool { return i%3 == 0 }, negB: func(l, j int) bool { return j%3 == 0 }},
			// Some rows of A mix signs in the second block only.
			{name: "mixedBlock", gen: pos(127),
				negA: func(i, l int) bool { return i%2 == 0 && l >= 300 && l < 400 && l%5 == 0 }},
		} {
			a, b := c.gen(13, n), c.gen(n, 11)
			if c.negA != nil {
				negate(a, c.negA)
			}
			if c.negB != nil {
				negate(b, c.negB)
			}
			if err := sameBits(Int8Gemm(a, b), refInt8Gemm(a, b)); err != nil {
				t.Fatalf("%s depth %d: %v", c.name, n, err)
			}
		}
	}
}

func TestCPUChargeGemmScalesWithAmdahlShare(t *testing.T) {
	// The OpenMP baselines carry a serial share (Figure 8a's 2.70x
	// average on 8 cores): expect ~1/(f + (1-f)/8) with f = 0.25.
	p := timing.Default()
	c1 := NewCPU(p, 1)
	c8 := NewCPU(p, 8)
	e1 := c1.ChargeGemm(0, 1024, 1024, 1024, 1)
	e8 := c8.ChargeGemm(0, 1024, 1024, 1024, 8)
	ratio := e1.Seconds() / e8.Seconds()
	want := 1 / (p.CPU.OMPSerialFraction + (1-p.CPU.OMPSerialFraction)/8)
	if ratio < want*0.95 || ratio > want*1.05 {
		t.Fatalf("8-core scaling %.2fx, want ~%.2fx", ratio, want)
	}
}

func TestCPUChargeStreamMemoryBound(t *testing.T) {
	// A memory-bound kernel must NOT scale linearly: the shared bus
	// carries all bytes regardless of the thread count.
	p := timing.Default()
	elems := int64(1 << 26)
	bytes := int64(1 << 30)
	c1 := NewCPU(p, 1)
	c8 := NewCPU(p, 8)
	e1 := c1.ChargeStream(0, elems, bytes, 1)
	e8 := c8.ChargeStream(0, elems, bytes, 8)
	ratio := e1.Seconds() / e8.Seconds()
	if ratio > 6 {
		t.Fatalf("memory-bound kernel scaled %.2fx; the bus should cap it", ratio)
	}
	if e8 < e1/8 {
		t.Fatal("scaling cannot exceed the thread count")
	}
}

func TestCPUEnergyIncludesCores(t *testing.T) {
	c := NewCPU(nil, 1)
	c.ChargeGemm(0, 512, 512, 512, 1)
	rep := c.Energy()
	if rep.ActiveJoules <= 0 || rep.TotalJoules() <= rep.ActiveJoules {
		t.Fatalf("energy report %+v", rep)
	}
}

func TestCPUBadCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCPU(nil, 0)
}

func TestChargeScalar(t *testing.T) {
	c := NewCPU(nil, 2)
	end := c.ChargeScalar(0, 3_000_000, 2)
	if end <= 0 {
		t.Fatal("scalar charge must advance time")
	}
	if c.Elapsed() != end {
		t.Fatal("makespan mismatch")
	}
}

func TestInt8GemmFasterThanFloat(t *testing.T) {
	p := timing.Default()
	c := NewCPU(p, 1)
	f := c.ChargeGemm(0, 1024, 1024, 1024, 1)
	c2 := NewCPU(p, 1)
	i := c2.ChargeInt8Gemm(0, 1024, 1024, 1024, 1)
	if i > f {
		t.Fatal("int8 GEMM should not be slower than float32 on CPU")
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := tensor.RandUniform(rng, 133, 97, -2, 2)
	b := tensor.RandUniform(rng, 97, 71, -2, 2)
	if err := sameBits(GemmParallel(a, b), Gemm(a, b)); err != nil {
		t.Fatal(err)
	}
	// Degenerate shapes.
	one := tensor.New(1, 4)
	oneB := tensor.New(4, 1)
	if out := GemmParallel(one, oneB); out.Rows != 1 || out.Cols != 1 {
		t.Fatal("1-row parallel gemm shape")
	}
}

// FuzzGemmBits pins Gemm to the blocked loop it replaced on small
// shapes whose elements come from a table holding zeros of both signs,
// infinities, NaN and values that overflow when multiplied; with a
// finite B it must also equal NaiveGemm.
func FuzzGemmBits(f *testing.F) {
	f.Add([]byte{2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{5, 7, 3, 6, 0, 6, 1, 7, 2, 8, 0, 0, 9, 1})
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -2.25, 3, 1e-40,
		3e38, -3e38, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 7, -0.125, 1e20}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, n, k := int(data[0])%9+1, int(data[1])%9+1, int(data[2])%9+1
		data = data[3:]
		at := func(i int) float32 {
			if len(data) == 0 {
				return 0
			}
			return vals[int(data[i%len(data)])%len(vals)]
		}
		a, b := tensor.New(m, n), tensor.New(n, k)
		for i := range a.Data {
			a.Data[i] = at(i)
		}
		finite := true
		for i := range b.Data {
			b.Data[i] = at(len(a.Data) + i)
			finite = finite && !math.IsInf(float64(b.Data[i]), 0) && !math.IsNaN(float64(b.Data[i]))
		}
		got := Gemm(a, b)
		if err := sameBits(got, refBlockedGemm(a, b)); err != nil {
			t.Fatalf("%dx%dx%d vs blocked loop: %v", m, n, k, err)
		}
		if finite {
			if err := sameBits(got, NaiveGemm(a, b)); err != nil {
				t.Fatalf("%dx%dx%d vs naive: %v", m, n, k, err)
			}
		}
	})
}
