package blackscholes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/gpusim"
)

func TestPolyFitQuality(t *testing.T) {
	// The ninth-degree fit must track the exact CNDF well inside its
	// domain.
	var worst float64
	for x := -3.5; x <= 3.5; x += 0.05 {
		d := math.Abs(polyCNDF(x) - cndf(x))
		if d > worst {
			worst = d
		}
	}
	if worst > 2e-3 {
		t.Fatalf("polynomial CNDF max error %v", worst)
	}
}

func TestPolyCNDFTails(t *testing.T) {
	if polyCNDF(10) != 1 || polyCNDF(-10) != 0 {
		t.Fatal("tails must clamp to 0/1")
	}
}

func TestPriceExactSanity(t *testing.T) {
	// Deep in-the-money call is worth ~S - K*exp(-rT).
	o := Option{S: 200, K: 20, T: 1, R: 0.05, V: 0.2}
	want := 200 - 20*float32(math.Exp(-0.05))
	got := priceExact(o)
	if math.Abs(float64(got-want)) > 0.1 {
		t.Fatalf("deep ITM price %v want %v", got, want)
	}
	// Far out-of-the-money call is nearly worthless.
	o = Option{S: 20, K: 200, T: 0.5, R: 0.05, V: 0.2}
	if p := priceExact(o); p > 0.01 {
		t.Fatalf("deep OTM price %v", p)
	}
}

func TestTPUPricesMatchExact(t *testing.T) {
	cfg := Config{N: 4096, Seed: 1}
	opts := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	ref, _ := RunCPU(cpu, 1, cfg, opts)
	ctx := gptpu.Open(gptpu.Config{})
	got, _, err := RunTPU(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var se, rs float64
	for i := range ref {
		d := float64(got[i] - ref[i])
		se += d * d
		rs += float64(ref[i]) * float64(ref[i])
	}
	rmse := math.Sqrt(se / rs)
	// Paper Table 4: BlackScholes RMSE 0.33%.
	if rmse > 0.02 {
		t.Fatalf("price RMSE %v", rmse)
	}
}

func TestTimingOnlyBlackScholes(t *testing.T) {
	cfg := Config{N: 1 << 20}
	ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
	prices, m, err := RunTPU(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prices != nil {
		t.Fatal("timing-only must not fabricate prices")
	}
	if m.Elapsed <= 0 {
		t.Fatal("no time charged")
	}
}

func TestRunGPU(t *testing.T) {
	g := gpusim.New(gpusim.RTX2080())
	m := RunGPU(g, Config{N: 1 << 20}, gpusim.FP32)
	if m.Elapsed <= 0 {
		t.Fatal("no GPU time charged")
	}
}

func TestGenerateRanges(t *testing.T) {
	opts := Config{N: 1000, Seed: 2}.Generate()
	for _, o := range opts {
		if o.S <= 0 || o.K <= 0 || o.T <= 0 || o.V <= 0 {
			t.Fatalf("invalid option %+v", o)
		}
	}
}

// Property: device call prices are (approximately) monotone in the
// spot price, holding everything else fixed.
func TestQuickMonotoneInSpot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := Option{K: 100, T: 1, R: 0.03, V: 0.3}
		opts := make([]Option, 64)
		for i := range opts {
			o := base
			o.S = 40 + float32(i)*2.5 + rng.Float32()*0.01
			opts[i] = o
		}
		cfg := Config{N: len(opts)}
		ctx := gptpu.Open(gptpu.Config{})
		prices, _, err := RunTPU(ctx, cfg, opts)
		if err != nil {
			return false
		}
		for i := 1; i < len(prices); i++ {
			// Allow the quantization floor of ~0.5% of scale.
			if prices[i] < prices[i-1]-0.75 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestPutCallParity(t *testing.T) {
	// Device-priced calls converted through parity must match the
	// exact put formula within the call-pricing error.
	cfg := Config{N: 2048, Seed: 6}
	opts := cfg.Generate()
	ctx := gptpu.Open(gptpu.Config{})
	calls, _, err := RunTPU(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var se, rs float64
	for i, o := range opts {
		put := putFromCall(calls[i], o)
		ref := priceExactPut(o)
		d := float64(put - ref)
		se += d * d
		rs += float64(ref)*float64(ref) + 1
	}
	if rmse := math.Sqrt(se / rs); rmse > 0.02 {
		t.Fatalf("put parity RMSE %v", rmse)
	}
}

func TestPutCallParityExact(t *testing.T) {
	// The two closed forms must themselves satisfy parity.
	o := Option{S: 105, K: 95, T: 0.75, R: 0.04, V: 0.25}
	c := priceExact(o)
	p := priceExactPut(o)
	if d := math.Abs(float64(putFromCall(c, o) - p)); d > 1e-3 {
		t.Fatalf("closed forms violate parity by %v", d)
	}
}

// priceExactPut computes the reference European put price.
func priceExactPut(o Option) float32 {
	s, k, t, r, v := float64(o.S), float64(o.K), float64(o.T), float64(o.R), float64(o.V)
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * math.Sqrt(t))
	d2 := d1 - v*math.Sqrt(t)
	return float32(k*math.Exp(-r*t)*cndf(-d2) - s*cndf(-d1))
}

// putFromCall converts a call price to the matching put via put-call
// parity (P = C - S + K*exp(-rT)), the host-side identity that derives
// puts from device-priced calls.
func putFromCall(call float32, o Option) float32 {
	return call - o.S + o.K*float32(math.Exp(-float64(o.R)*float64(o.T)))
}

// polyCNDF evaluates the fitted polynomial on the host.
func polyCNDF(x float64) float64 {
	t := x / dClamp
	if t > 1 {
		return 1
	}
	if t < -1 {
		return 0
	}
	var acc, p float64 = 0, 1
	for _, c := range polyCoeffs {
		acc += float64(c) * p
		p *= t
	}
	return acc
}
