package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestScaleFor(t *testing.T) {
	if ScaleFor(127) != 1 {
		t.Fatalf("ScaleFor(127)=%v", ScaleFor(127))
	}
	if ScaleFor(0) != 1 {
		t.Fatal("zero absmax must fall back to scale 1")
	}
	if ScaleFor(float32(math.NaN())) != 1 {
		t.Fatal("NaN absmax must fall back to scale 1")
	}
	// Regression: +Inf absmax yielded QMax/+Inf = scale 0, and every
	// later dequantization divided by zero, poisoning results with NaN.
	if ScaleFor(float32(math.Inf(1))) != 1 {
		t.Fatal("+Inf absmax must fall back to scale 1")
	}
}

func TestSaturateI8(t *testing.T) {
	cases := []struct {
		in   int32
		want int8
	}{{0, 0}, {127, 127}, {128, 127}, {1 << 20, 127}, {-128, -128}, {-129, -128}, {-(1 << 20), -128}, {-5, -5}}
	for _, c := range cases {
		if got := SaturateI8(c.in); got != c.want {
			t.Fatalf("SaturateI8(%d)=%d want %d", c.in, got, c.want)
		}
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.RandUniform(rng, 64, 64, -50, 50)
	q, p := Quantize(m)
	back := Dequantize(q, p)
	// Max round-trip error of symmetric int8 quantization is half a
	// quantization step.
	step := 1 / p.Scale
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if d := math.Abs(float64(back.At(r, c) - m.At(r, c))); d > float64(step)/2+1e-6 {
				t.Fatalf("round-trip error %v exceeds half step %v", d, step/2)
			}
		}
	}
}

func TestQuantizeAllZeros(t *testing.T) {
	m := tensor.New(4, 4)
	q, p := Quantize(m)
	if p.Scale != 1 {
		t.Fatalf("scale=%v", p.Scale)
	}
	for _, v := range q.Data {
		if v != 0 {
			t.Fatal("zeros must quantize to zeros")
		}
	}
}

func TestQuantizeSymmetry(t *testing.T) {
	m := tensor.FromSlice(1, 2, []float32{-10, 10})
	q, _ := Quantize(m)
	if q.At(0, 0) != -q.At(0, 1) {
		t.Fatalf("symmetric values must quantize symmetrically: %d vs %d", q.At(0, 0), q.At(0, 1))
	}
	if q.At(0, 1) != QMax {
		t.Fatalf("absmax must map to QMax, got %d", q.At(0, 1))
	}
}

func TestDequantizeI32(t *testing.T) {
	acc := tensor.NewI32(1, 1)
	acc.Set(0, 0, 254)
	// combined scale 2 means raw = 254/2 = 127.
	m := DequantizeI32(acc, 2)
	if m.At(0, 0) != 127 {
		t.Fatalf("got %v", m.At(0, 0))
	}
}

func TestCalibrateFullVsSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := tensor.RandUniform(rng, 128, 128, -7, 13)
	min, max := Calibrate(m, MethodScale, nil)
	emin, emax := m.MinMax()
	if min != emin || max != emax {
		t.Fatal("MethodScale must scan exactly")
	}
	smin, smax := Calibrate(m, MethodSampled, rng)
	if smin < emin || smax > emax {
		t.Fatal("sampled range cannot exceed true range")
	}
	// With ~1024 samples of a uniform distribution the sampled range
	// should cover most of the true range.
	if float64(smax-smin) < 0.9*float64(emax-emin) {
		t.Fatalf("sampled range [%v,%v] too narrow vs [%v,%v]", smin, smax, emin, emax)
	}
}

func TestCalibrateSmallFallsBackToScan(t *testing.T) {
	m := tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	min, max := Calibrate(m, MethodSampled, rand.New(rand.NewSource(1)))
	if min != 1 || max != 4 {
		t.Fatalf("got [%v,%v]", min, max)
	}
}

func TestOutputScaleEquations(t *testing.T) {
	// Eq 5: S = 1/(span^2 * N)
	if got, want := OutputScaleGEMM(0, 2, 10), float32(1.0/40.0); math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("Eq5: got %v want %v", got, want)
	}
	// Eq 6: S = 1/(2*span)
	if got, want := OutputScaleAddSub(-1, 3), float32(1.0/8.0); got != want {
		t.Fatalf("Eq6: got %v want %v", got, want)
	}
	// Eq 7: S = 1/span^2
	if got, want := OutputScaleMul(0, 4), float32(1.0/16.0); got != want {
		t.Fatalf("Eq7: got %v want %v", got, want)
	}
	// Eq 8: S = 1/span
	if got, want := OutputScaleDefault(0, 5), float32(1.0/5.0); got != want {
		t.Fatalf("Eq8: got %v want %v", got, want)
	}
}

func TestOutputScaleConstantInput(t *testing.T) {
	// Constant data (span 0) must not divide by zero.
	for _, op := range []Op{OpGEMM, OpAddSub, OpMul, OpOther} {
		s := OutputScale(op, 5, 5, 8)
		if math.IsInf(float64(s), 0) || math.IsNaN(float64(s)) || s <= 0 {
			t.Fatalf("op %d: bad scale %v", op, s)
		}
	}
}

func TestEstimateChainedScalePaperExample(t *testing.T) {
	// Paper 6.2.2 worked example: matrix multiply then pairwise add on
	// NxN matrices with data in 0..n-1 bounds the output by
	// 2*N*(n-1)^2; the chosen scale is its reciprocal.
	N, n := 16, 8
	s := EstimateChainedScale([]Op{OpGEMM, OpAddSub}, 0, float32(n-1), N)
	want := 1.0 / (2.0 * float64(N) * float64(n-1) * float64(n-1))
	if math.Abs(float64(s)-want)/want > 1e-6 {
		t.Fatalf("chained scale %v want %v", s, want)
	}
}

func TestEstimateChainedScaleIdentityOps(t *testing.T) {
	s := EstimateChainedScale([]Op{OpOther, OpOther}, -4, 4, 8)
	if s != 0.25 {
		t.Fatalf("got %v want 0.25", s)
	}
	if EstimateChainedScale(nil, 0, 0, 4) != 1 {
		t.Fatal("zero-range chain must fall back to 1")
	}
}

// Property: quantization never exceeds the int8 range and dequantized
// values never exceed the original absolute maximum by more than half
// a step.
func TestQuickQuantizeBounds(t *testing.T) {
	f := func(seed int64, lo, hi int16) bool {
		rng := rand.New(rand.NewSource(seed))
		l, h := float32(lo), float32(hi)
		if l > h {
			l, h = h, l
		}
		if l == h {
			h = l + 1
		}
		m := tensor.RandUniform(rng, 8, 8, l, h)
		q, p := Quantize(m)
		for _, v := range q.Data {
			if v > QMax || v < -QMax-1 {
				return false
			}
		}
		back := Dequantize(q, p)
		absMax := m.AbsMax()
		halfStep := 0.5 / p.Scale
		for i, v := range back.Data {
			_ = i
			if math.Abs(float64(v)) > float64(absMax)+float64(halfStep)+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the product of two quantized matrices dequantized through
// the combined scale approximates the real product within the error
// bound implied by input rounding.
func TestQuickProductScaleComposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := tensor.RandUniform(rng, 4, 4, -3, 3)
		b := tensor.RandUniform(rng, 4, 4, -3, 3)
		qa, pa := Quantize(a)
		qb, pb := Quantize(b)
		acc := tensor.NewI32(4, 4)
		ref := tensor.New(4, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				var s int32
				var fs float64
				for k := 0; k < 4; k++ {
					s += int32(qa.At(i, k)) * int32(qb.At(k, j))
					fs += float64(a.At(i, k)) * float64(b.At(k, j))
				}
				acc.Set(i, j, s)
				ref.Set(i, j, float32(fs))
			}
		}
		got := DequantizeI32(acc, pa.Scale*pb.Scale)
		return tensor.RMSE(ref, got) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsForIntegerExact(t *testing.T) {
	m := tensor.FromSlice(2, 2, []float32{0, 5, 127, -128})
	if p := ParamsFor(m); p.Scale != 1 {
		t.Fatalf("integer data must get scale 1, got %v", p.Scale)
	}
	// Round-trip must be lossless.
	q := QuantizeWith(m, Params{Scale: 1})
	back := Dequantize(q, Params{Scale: 1})
	if !back.Equal(m) {
		t.Fatal("integer quantization must be exact")
	}
}

func TestParamsForOutOfRangeIntegers(t *testing.T) {
	m := tensor.FromSlice(1, 2, []float32{0, 128})
	p := ParamsFor(m)
	if p.Scale == 1 {
		t.Fatal("128 exceeds int8 range; exactness must not apply")
	}
	if p.Scale != ScaleFor(128) {
		t.Fatalf("scale %v want %v", p.Scale, ScaleFor(128))
	}
}

func TestParamsForFloats(t *testing.T) {
	m := tensor.FromSlice(1, 2, []float32{0.5, -3.25})
	if p := ParamsFor(m); p.Scale != ScaleFor(3.25) {
		t.Fatalf("scale %v", p.Scale)
	}
}

func TestSplitPortionsReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := tensor.RandUniform(rng, 32, 32, -7, 7)
	hi, lo, p := SplitPortions(m)
	for i := range m.Data {
		if hi.Data[i]+lo.Data[i] != m.Data[i] {
			t.Fatal("hi + lo must reconstruct exactly (float identity)")
		}
	}
	// hi must be int8-exact at the returned scale.
	q := QuantizeWith(hi, p)
	back := Dequantize(q, p)
	if !back.Equal(hi) {
		t.Fatal("coarse portion must round-trip int8 losslessly")
	}
	// Residual must be bounded by half a quantization step.
	half := 0.5/p.Scale + 1e-6
	for _, v := range lo.Data {
		if v > half || v < -half {
			t.Fatalf("residual %v exceeds half step %v", v, half)
		}
	}
}

// splitCases are the shapes and value distributions the split oracles
// run on: random floats, tall-narrow power features (BlackScholes'
// 65536x10), a vector, a strided view, small integers (scale 1, whose
// residual is all zero), all-zero data, one-signed data and an operand
// whose coarse values are all integers without the data being so.
func splitCases(rng *rand.Rand) map[string]*tensor.Matrix {
	powers := tensor.New(65536, 10)
	for r := 0; r < powers.Rows; r++ {
		t, p := rng.Float32()*2-1, float32(1)
		for c := range powers.Row(r) {
			powers.Set(r, c, p)
			p *= t
		}
	}
	ints := tensor.New(23, 31)
	for i := range ints.Data {
		ints.Data[i] = float32(rng.Intn(256) - 128)
	}
	return map[string]*tensor.Matrix{
		"floats":   tensor.RandUniform(rng, 37, 53, -7, 7),
		"powers":   powers,
		"vector":   tensor.RandUniform(rng, 1, 1000, -2, 3),
		"view":     tensor.RandUniform(rng, 40, 40, -5, 5).View(3, 7, 29, 17),
		"ints":     ints,
		"zeros":    tensor.New(16, 16),
		"positive": tensor.RandUniform(rng, 9, 11, 0.5, 90),
		"negative": tensor.RandUniform(rng, 9, 11, -90, -0.5),
		// codes 127 and 0 only, and 127/scale rounds to 100 exactly.
		"int-coarse": tensor.FromSlice(2, 3, []float32{100, 0.1, -0.2, 0, 100, 0.3}),
		"one":        tensor.FromSlice(1, 1, []float32{-2.75}),
		"empty":      tensor.New(0, 0),
	}
}

// TestSplitQuantizeMatchesReference pins the runtime's split to its
// definition: SplitPortions, then ParamsFor and QuantizeWith on each
// float32 portion. Codes and scale bits must agree exactly.
func TestSplitQuantizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for name, m := range splitCases(rng) {
		hiRef, loRef, p := SplitPortions(m)
		hi, lo := SplitQuantize(m, p)
		for _, c := range []struct {
			part string
			ref  *tensor.Matrix
			got  Portion
		}{{"hi", hiRef, hi}, {"lo", loRef, lo}} {
			want := ParamsFor(c.ref)
			if math.Float32bits(c.got.P.Scale) != math.Float32bits(want.Scale) {
				t.Errorf("%s %s: scale %v, want %v", name, c.part, c.got.P.Scale, want.Scale)
				continue
			}
			if !c.got.Q.Equal(QuantizeWith(c.ref, want)) {
				t.Errorf("%s %s: int8 form differs from QuantizeWith", name, c.part)
			}
		}
	}
}

// TestSplitOfViewMatchesClone is the regression for SplitPortions on a
// strided view, which filled the residual by flat index over the
// parent's storage: a view and its compact clone must split alike.
func TestSplitOfViewMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	parent := tensor.RandUniform(rng, 48, 48, -9, 9)
	for _, v := range []*tensor.Matrix{parent.View(5, 3, 20, 31), parent.View(0, 1, 48, 47), parent.View(47, 0, 1, 48)} {
		c := v.Clone()
		vh, vl, vp := SplitPortions(v)
		ch, cl, cp := SplitPortions(c)
		if vp != cp || !vh.Equal(ch) || !vl.Equal(cl) {
			t.Errorf("%dx%d view: SplitPortions differs from its clone's", v.Rows, v.Cols)
		}
		sh, sl := SplitQuantize(v, vp)
		kh, kl := SplitQuantize(c, cp)
		if sh.P != kh.P || sl.P != kl.P || !sh.Q.Equal(kh.Q) || !sl.Q.Equal(kl.Q) {
			t.Errorf("%dx%d view: SplitQuantize differs from its clone's", v.Rows, v.Cols)
		}
	}
}

// TestExtentMaxCodeMatchesScan: the max|code| the analysis pass's
// extent derives equals a scan of the int8 form, at the data's own
// scale and at every smaller joint scale tried — on the split cases,
// integer data reaching -128, all-zero, denormal (whose scale overflows
// to +Inf) and saturating data, and on random matrices of each kind.
func TestExtentMaxCodeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	den := math.Float32frombits(1)
	check := func(name string, m *tensor.Matrix) {
		t.Helper()
		p, e, finite := Analyze(m)
		if !finite {
			t.Fatalf("%s: reported non-finite", name)
		}
		for _, s := range []float32{
			p.Scale,
			math.Nextafter32(p.Scale, 0),
			p.Scale / 2,
			p.Scale / 3,
			p.Scale * 1e-3,
			ScaleFor(127.5), // an int8-exact partner's joint scale just below 1
			1e-20,
		} {
			if s > p.Scale {
				continue
			}
			if got, want := e.MaxCode(s), scanAbsMax(QuantizeWith(m, Params{Scale: s})); got != want {
				t.Errorf("%s at scale %v (own %v): extent %+v gives %d, scan %d", name, s, p.Scale, e, got, want)
			}
		}
	}
	minInt := tensor.New(7, 9)
	for i := range minInt.Data {
		minInt.Data[i] = float32(rng.Intn(200) - 100)
	}
	minInt.Data[17] = -128
	cases := splitCases(rng)
	cases["int-min"] = minInt
	cases["int-positive"] = tensor.RandPositiveInts(rng, 8, 8, 127)
	cases["denormal"] = tensor.FromSlice(1, 4, []float32{den, -den, 1e-40, 0})
	cases["denormal-positive"] = tensor.FromSlice(1, 3, []float32{den, 3 * den, 1e-40})
	cases["denormal-negative"] = tensor.FromSlice(1, 2, []float32{-den, -1e-40})
	cases["saturating"] = tensor.FromSlice(1, 4, []float32{math.MaxFloat32, -math.MaxFloat32, 1, -3e38})
	cases["wide-ints"] = tensor.FromSlice(1, 3, []float32{128, -129, 5})
	for name, m := range cases {
		check(name, m)
	}
	// Random matrices of every kind the cases above cover.
	for i := 0; i < 2000; i++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := tensor.New(rows, cols)
		kind := i % 5
		for j := range m.Data {
			switch kind {
			case 0: // int8-exact
				m.Data[j] = float32(rng.Intn(256) - 128)
			case 1: // floats of random magnitude
				m.Data[j] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
			case 2: // tiny: scale overflows or nearly so
				m.Data[j] = float32(rng.NormFloat64()) * math.Float32frombits(1+uint32(rng.Intn(1<<24)))
			case 3: // ties and near-integers
				m.Data[j] = float32(rng.Intn(512)-256) / 2
			case 4: // one sign only
				m.Data[j] = rng.Float32() * 50
			}
			if rng.Intn(8) == 0 {
				m.Data[j] = 0
			}
		}
		check(fmt.Sprintf("random %d (kind %d)", i, kind), m)
	}
}

func scanAbsMax(q *tensor.MatrixI8) int32 {
	var best int32
	for r := 0; r < q.Rows; r++ {
		for _, v := range q.Row(r) {
			best = max(best, int32(v), -int32(v))
		}
	}
	return best
}

// TestDividerMatchesExact checks the multiply-shift divider against
// round-half-away-from-zero division in exact int64 arithmetic, over
// edge numerators (0, ±1, the int32 extremes, multiples of d and the
// rounding ties around them) and random ones, for divisors 1, 2, 127,
// 128, the int32 maximum and random values up to 2^20.
func TestDividerMatchesExact(t *testing.T) {
	exact := func(v, d int64) int64 {
		if v >= 0 {
			return (v + d/2) / d
		}
		return -((-v + d/2) / d)
	}
	rng := rand.New(rand.NewSource(71))
	divisors := []int32{1, 2, 3, 127, 128, 255, 1 << 20, math.MaxInt32}
	for i := 0; i < 200; i++ {
		divisors = append(divisors, 1+rng.Int31n(1<<20))
	}
	for _, d := range divisors {
		div := NewDivider(d)
		check := func(v int32) {
			if got, want := div.RoundDiv(v), exact(int64(v), int64(d)); int64(got) != want {
				t.Fatalf("RoundDiv(%d, %d) = %d, want %d", v, d, got, want)
			}
		}
		for _, v := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1} {
			check(v)
		}
		for k := int64(-3); k <= 3; k++ {
			for _, off := range []int64{-1, 0, 1, int64(d / 2), -int64(d / 2), int64(d/2) + 1, -int64(d/2) - 1} {
				if v := k*int64(d) + off; v >= math.MinInt32 && v <= math.MaxInt32 {
					check(int32(v))
				}
			}
		}
		for i := 0; i < 2000; i++ {
			check(int32(rng.Uint32()))
			check(rng.Int31n(1<<22) - 1<<21)
		}
	}
}

// TestAnalyzeMatchesSeparateScans pins the folded pass against the
// scans it replaced — an exactness walk, a min/max walk and a
// finiteness walk — on float, integer, out-of-range, strided and
// poisoned data: same scale bits, same verdict.
func TestAnalyzeMatchesSeparateScans(t *testing.T) {
	refParams := func(m *tensor.Matrix) Params {
		exact := true
		for r := 0; r < m.Rows && exact; r++ {
			for _, v := range m.Row(r) {
				if v != float32(int32(v)) || v > QMax || v < -QMax-1 {
					exact = false
					break
				}
			}
		}
		if exact {
			return Params{Scale: 1}
		}
		return Params{Scale: ScaleFor(m.AbsMax())}
	}
	refFinite := func(m *tensor.Matrix) bool {
		for r := 0; r < m.Rows; r++ {
			for _, v := range m.Row(r) {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return false
				}
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(5))
	ints := tensor.New(9, 13)
	for i := range ints.Data {
		ints.Data[i] = float32(rng.Intn(256) - 128)
	}
	wide := ints.Clone()
	wide.Set(4, 4, 128)
	cases := map[string]*tensor.Matrix{
		"floats":   tensor.RandUniform(rng, 17, 23, -3, 5),
		"negative": tensor.RandUniform(rng, 5, 5, -9, -1),
		"ints":     ints,
		"wide":     wide,
		"view":     tensor.RandUniform(rng, 20, 20, -1, 1).View(3, 4, 7, 9),
		"zeros":    tensor.New(4, 4),
		"huge":     tensor.FromSlice(1, 3, []float32{math.MaxFloat32, -math.MaxFloat32, 1}),
		"shape":    tensor.ShapeOnly(64, 64),
		"empty":    tensor.New(0, 0),
	}
	for name, m := range cases {
		p, _, finite := Analyze(m)
		if name == "shape" {
			if p.Scale != 1 || !finite {
				t.Errorf("shape-only: %+v finite=%v, want scale 1, finite", p, finite)
			}
			continue
		}
		if want := refParams(m); math.Float32bits(p.Scale) != math.Float32bits(want.Scale) {
			t.Errorf("%s: scale %v, want %v", name, p.Scale, want.Scale)
		}
		if !finite {
			t.Errorf("%s: reported non-finite", name)
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, at := range []int{0, 57, 17*23 - 1} {
			m := tensor.RandUniform(rng, 17, 23, -3, 5)
			m.Data[at] = bad
			if _, _, finite := Analyze(m); finite || refFinite(m) {
				t.Errorf("%v at %d: finite = %v, want false", bad, at, finite)
			}
		}
	}
}
