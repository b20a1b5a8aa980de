package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The scalar forms Analyze and RoundToI8 had before they went
// branch-light, kept as test-only references: the fast forms must agree
// with them bit for bit on every finite input (and wherever the old
// int32 conversion was defined at all).

// refRoundToI8 rounds in float64 and saturates the wide integer. The
// product is saturated before the conversion so the reference itself
// stays inside what Go defines; inside ±2³¹ it is exactly the old
// SaturateI8(int32(math.RoundToEven(float64(v * scale)))).
func refRoundToI8(v, scale float32) int8 {
	r := math.RoundToEven(float64(v * scale))
	if r > QMax {
		return QMax
	}
	if r < -QMax-1 {
		return -QMax - 1
	}
	return int8(r)
}

// refAnalyze is the old single folded walk: min/max by comparison, the
// v-v poison sum, the exactness flag.
func refAnalyze(m *tensor.Matrix) (Params, bool) {
	if m.Data == nil || m.Elems() == 0 {
		return Params{Scale: 1}, true
	}
	var (
		exact  = true
		lo, hi = m.At(0, 0), m.At(0, 0)
		poison float32
	)
	for r := 0; r < m.Rows; r++ {
		for _, v := range m.Row(r) {
			poison += v - v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			if exact && (v != float32(int32(v)) || v > QMax || v < -QMax-1) {
				exact = false
			}
		}
	}
	if exact {
		return Params{Scale: 1}, poison == 0
	}
	absMax := hi
	if -lo > absMax {
		absMax = -lo
	}
	return Params{Scale: scaleFor(absMax)}, poison == 0
}

// TestRoundToI8Saturates is the regression for the out-of-range
// conversion: on amd64 the old form returned -128 for RoundToI8(3e9, 1)
// and RoundToI8(1e9, 127), a positive overflow saturating negative.
func TestRoundToI8Saturates(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		v, scale float32
		want     int8
	}{
		{3e9, 1, 127}, {-3e9, 1, -128},
		{1e9, 127, 127}, {-1e9, 127, -128},
		{1e12, 1, 127}, {-1e12, 1, -128},
		{math.MaxFloat32, math.MaxFloat32, 127}, {-math.MaxFloat32, math.MaxFloat32, -128}, // product overflows to ±Inf
		{127.5, 1, 127}, {-127.5, 1, -128},
		{128.5, 1, 127}, {-128.5, 1, -128},
		{126.5, 1, 126}, {-126.5, 1, -126},
		// Half-to-even ties.
		{0.5, 1, 0}, {-0.5, 1, 0}, {1.5, 1, 2}, {-1.5, 1, -2}, {2.5, 1, 2}, {-2.5, 1, -2},
		{0.25, 2, 0}, {0.75, 2, 2}, {63.25, 2, 126},
		// Non-finite products saturate deterministically. (Operators
		// never see them: NaN and ±Inf data is rejected as ErrBadInput
		// when the buffer is analyzed.)
		{inf, 1, 127}, {-inf, 1, -128}, {float32(math.NaN()), 1, -128}, {0, inf, -128},
	} {
		if got := RoundToI8(c.v, c.scale); got != c.want {
			t.Errorf("RoundToI8(%v, %v) = %d, want %d", c.v, c.scale, got, c.want)
		}
	}
}

// TestRoundToI8MatchesReference sweeps the fast rounding against the
// float64 reference: every product k/8 across the int8 range and past
// both ends (all ties included), the float32 neighbours of every
// half-integer, denormals, signed zeros, and random products at random
// scales.
func TestRoundToI8MatchesReference(t *testing.T) {
	check := func(v, scale float32) {
		t.Helper()
		if got, want := RoundToI8(v, scale), refRoundToI8(v, scale); got != want {
			t.Fatalf("RoundToI8(%v, %v) = %d, want %d (product %v)", v, scale, got, want, v*scale)
		}
	}
	for k := -140 * 8; k <= 140*8; k++ {
		v := float32(k) / 8
		check(v, 1)
		check(v/4, 4)
		check(float32(math.Nextafter32(v, float32(math.Inf(1)))), 1)
		check(float32(math.Nextafter32(v, float32(math.Inf(-1)))), 1)
	}
	den := math.Float32frombits(1) // smallest positive denormal
	negZero := float32(math.Copysign(0, -1))
	for _, v := range []float32{0, negZero, den, -den, 1e-40, -1e-40, math.SmallestNonzeroFloat32} {
		for _, s := range []float32{1, 127, 1e30, math.MaxFloat32, den} {
			check(v, s)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200000; i++ {
		scale := float32(math.Exp(rng.Float64()*40 - 20))
		v := float32((rng.Float64()*2 - 1) * 140 / float64(scale))
		check(v, scale)
		check(float32(rng.NormFloat64()*1e6), scale)
	}
}

// TestQuantizeWithMatchesReference runs the matrix pass, compact and
// strided, against the reference rounding.
func TestQuantizeWithMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, m := range []*tensor.Matrix{
		tensor.RandUniform(rng, 33, 47, -9, 5),
		tensor.RandUniform(rng, 40, 40, -1, 1).View(3, 5, 21, 30),
	} {
		for _, p := range []Params{ParamsFor(m), {Scale: 1000}, {Scale: 0.5}} {
			q := QuantizeWith(m, p)
			for r := 0; r < m.Rows; r++ {
				for c, v := range m.Row(r) {
					if got, want := q.At(r, c), refRoundToI8(v, p.Scale); got != want {
						t.Fatalf("scale %v [%d][%d]: %v -> %d, want %d", p.Scale, r, c, v, got, want)
					}
				}
			}
		}
	}
}

// TestAnalyzeMatchesReference pins the bit-twiddled calibration to the
// old folded walk on random, tie, denormal, signed-zero, exact-integer,
// nearly-integer and strided data — same scale bits, same verdict —
// and the verdict alone on poisoned data (a non-finite matrix's scale
// is meaningless; every op entry rejects it).
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	den := math.Float32frombits(1)
	negZero := float32(math.Copysign(0, -1))
	ints := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.Intn(256) - 128)
		}
		return m
	}
	lateFloat := ints(11, 13)
	lateFloat.Set(10, 12, 0.5)
	lateWide := ints(11, 13)
	lateWide.Set(10, 12, 128)
	cases := map[string]*tensor.Matrix{
		"floats":     tensor.RandUniform(rng, 17, 23, -3, 5),
		"negative":   tensor.RandUniform(rng, 5, 7, -9, -1),
		"ints":       ints(9, 13),
		"late-float": lateFloat,
		"late-wide":  lateWide,
		"ties":       tensor.FromSlice(2, 3, []float32{0.5, -1.5, 2.5, -126.5, 127.5, -128.5}),
		"denormal":   tensor.FromSlice(1, 4, []float32{den, -den, 1e-40, 0}),
		"zeros":      tensor.FromSlice(1, 4, []float32{0, negZero, 0, negZero}),
		"neg-zero":   tensor.FromSlice(1, 1, []float32{negZero}),
		"huge":       tensor.FromSlice(1, 3, []float32{math.MaxFloat32, -math.MaxFloat32, 1}),
		"neg-max":    tensor.FromSlice(1, 5, []float32{1, -7.25, 3, 0.5, -0.125}),
		"view":       tensor.RandUniform(rng, 20, 20, -1, 1).View(3, 4, 7, 9),
		"int-view":   ints(20, 20).View(1, 2, 9, 5),
		"one":        tensor.FromSlice(1, 1, []float32{-2.75}),
		"empty":      tensor.New(0, 0),
		"shape":      tensor.ShapeOnly(64, 64),
	}
	for n := 1; n <= 9; n++ { // every unroll remainder of the abs-max scan
		cases["len"+string(rune('0'+n))] = tensor.RandUniform(rng, 1, n, -4, 4)
	}
	for name, m := range cases {
		p, _, finite := Analyze(m)
		want, wantFinite := refAnalyze(m)
		if math.Float32bits(p.Scale) != math.Float32bits(want.Scale) || finite != wantFinite {
			t.Errorf("%s: Analyze = (%v, %v), want (%v, %v)", name, p.Scale, finite, want.Scale, wantFinite)
		}
		if name == "shape" {
			continue // no values to quantize
		}
		// Quantize calibrates with the same abs-max scan; tensor's
		// comparison walk is its reference.
		if _, qp := Quantize(m); math.Float32bits(qp.Scale) != math.Float32bits(scaleFor(absMax(m))) {
			t.Errorf("%s: Quantize scale %v, want %v", name, qp.Scale, scaleFor(absMax(m)))
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, at := range []int{0, 1, 2, 3, 57, 17*23 - 1} {
			for _, base := range []*tensor.Matrix{tensor.RandUniform(rng, 17, 23, -3, 5), ints(17, 23)} {
				base.Data[at] = bad
				_, _, finite := Analyze(base)
				if _, wantFinite := refAnalyze(base); finite || wantFinite {
					t.Errorf("%v at %d: finite = %v (reference %v), want false", bad, at, finite, wantFinite)
				}
			}
		}
	}
}

func benchData(rows, cols int) *tensor.Matrix {
	return tensor.RandUniform(rand.New(rand.NewSource(1)), rows, cols, -3, 5)
}

// BenchmarkAnalyze times the calibration walk on a 512x512 float
// operand (the gemm_lib shape); MB/s is host floats read.
func BenchmarkAnalyze(b *testing.B) {
	m := benchData(512, 512)
	b.SetBytes(int64(m.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(m)
	}
}

// BenchmarkQuantizeInto times the float32 -> int8 pass on the same
// operand; MB/s counts the floats read plus the bytes written.
func BenchmarkQuantizeInto(b *testing.B) {
	m := benchData(512, 512)
	p := ParamsFor(m)
	q := tensor.NewI8(m.Rows, m.Cols)
	b.SetBytes(int64(m.Elems()) * 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeInto(q, m, p)
	}
}

// BenchmarkSplitQuantize times the dual-portion split of BlackScholes'
// 65536x10 feature matrix; MB/s is host floats read.
func BenchmarkSplitQuantize(b *testing.B) {
	m := benchData(65536, 10)
	p := ParamsFor(m)
	b.SetBytes(int64(m.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitQuantize(m, p)
	}
}
