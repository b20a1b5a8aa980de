// Package blackscholes is the financial workload of the evaluation
// (Table 3: 1 x 256M x 9, AxBench [78] baseline): Black-Scholes
// European option pricing. Per section 7.2.6, GPTPU computes the
// cumulative normal distribution function (CNDF) with "a ninth-degree
// polynomial function [75] with the FullyConnected instruction":
// every option's normalized d-value expands into a 10-feature power
// vector, and one FullyConnected product against the fitted
// coefficient vector evaluates the polynomial for a whole batch.
package blackscholes

import (
	"math"
	"math/rand"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// polyDegree is the CNDF polynomial degree (paper: ninth degree).
const polyDegree = 9

// dClamp is the domain half-width of the polynomial fit; |d| beyond
// it clamps to 0/1 (the CNDF tails are flat there: Phi(3.6) differs
// from 1 by under 2e-4).
const dClamp = 3.6

// Option is one pricing task.
type Option struct {
	S, K, T, R, V float32 // spot, strike, expiry, rate, volatility
}

// Config describes one run of N options.
type Config struct {
	N    int
	Seed int64
}

// Generate builds a realistic synthetic option book.
func (c Config) Generate() []Option {
	rng := rand.New(rand.NewSource(c.Seed + 7))
	opts := make([]Option, c.N)
	for i := range opts {
		opts[i] = Option{
			S: 20 + 180*rng.Float32(),
			K: 20 + 180*rng.Float32(),
			T: 0.1 + 3*rng.Float32(),
			R: 0.01 + 0.05*rng.Float32(),
			V: 0.1 + 0.5*rng.Float32(),
		}
	}
	return opts
}

// cndf is the exact cumulative normal (the baseline's kernel).
func cndf(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// priceExact computes the reference call price.
func priceExact(o Option) float32 {
	s, k, t, r, v := float64(o.S), float64(o.K), float64(o.T), float64(o.R), float64(o.V)
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * math.Sqrt(t))
	d2 := d1 - v*math.Sqrt(t)
	return float32(s*cndf(d1) - k*math.Exp(-r*t)*cndf(d2))
}

// polyCoeffs fits the degree-9 polynomial Phi(4t) ~ sum c_k t^k over
// t in [-1, 1] by least squares (normal equations solved on startup).
// Normalizing the feature domain to [-1, 1] keeps every power inside
// the int8 quantization range.
var polyCoeffs = fitCNDFPoly()

func fitCNDFPoly() []float32 {
	const samples = 801
	const dim = polyDegree + 1
	var ata [dim][dim]float64
	var atb [dim]float64
	for s := 0; s < samples; s++ {
		t := -1 + 2*float64(s)/(samples-1)
		y := cndf(dClamp * t)
		var feats [dim]float64
		p := 1.0
		for k := 0; k < dim; k++ {
			feats[k] = p
			p *= t
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				ata[i][j] += feats[i] * feats[j]
			}
			atb[i] += feats[i] * y
		}
	}
	// Solve the symmetric positive-definite system with Gaussian
	// elimination and partial pivoting.
	for k := 0; k < dim; k++ {
		piv := k
		for i := k + 1; i < dim; i++ {
			if math.Abs(ata[i][k]) > math.Abs(ata[piv][k]) {
				piv = i
			}
		}
		ata[k], ata[piv] = ata[piv], ata[k]
		atb[k], atb[piv] = atb[piv], atb[k]
		for i := k + 1; i < dim; i++ {
			f := ata[i][k] / ata[k][k]
			for j := k; j < dim; j++ {
				ata[i][j] -= f * ata[k][j]
			}
			atb[i] -= f * atb[k]
		}
	}
	out := make([]float32, dim)
	for i := dim - 1; i >= 0; i-- {
		v := atb[i]
		for j := i + 1; j < dim; j++ {
			v -= ata[i][j] * float64(out[j])
		}
		out[i] = float32(v / ata[i][i])
	}
	return out
}

// RunCPU executes the AxBench-style baseline: the full closed-form
// formula with transcendental math per option.
func RunCPU(cpu *blas.CPU, threads int, cfg Config, opts []Option) ([]float32, apps.Metrics) {
	var prices []float32
	if opts != nil {
		prices = make([]float32, len(opts))
		for i, o := range opts {
			prices[i] = priceExact(o)
		}
	}
	cpu.ChargeScalar(0, int64(cfg.N), threads)
	return prices, apps.Metrics{Elapsed: cpu.Elapsed(), Energy: cpu.Energy()}
}

// batchSize options per device round (two FullyConnected invocations
// each: Phi(d1) and Phi(d2)).
const batchSize = 1 << 18

// RunTPU executes the GPTPU implementation: host computes the
// normalized d-values (log/sqrt), the device evaluates the CNDF
// polynomial with FullyConnected, and the host combines the final
// price.
func RunTPU(ctx *gptpu.Context, cfg Config, opts []Option) ([]float32, apps.Metrics, error) {
	functional := ctx.Functional()
	params := ctx.Params()
	n := cfg.N
	var prices []float32
	if functional {
		prices = make([]float32, n)
	}
	for b0 := 0; b0 < n; b0 += batchSize {
		bn := batchSize
		if b0+bn > n {
			bn = n - b0
		}
		// Host: d1/d2 (one log, two sqrts, a few muls per option).
		ctx.ChargeHostWork(params.CPUScalarTime(int64(bn) / 4))
		// One feature matrix serves both products: it holds the d1
		// powers until Phi(d1) returns and is clamped, then the d2
		// powers.
		f := ctx.Matrix(bn, polyDegree+1)
		if functional {
			for i := 0; i < bn; i++ {
				d1, _ := dValues(opts[b0+i])
				fillPowers(f.Row(i), d1)
			}
		}
		// Host: feature expansion (9 multiplies per option per d).
		ctx.ChargeHostWork(params.QuantTime(int64(bn) * (polyDegree + 1) * 2))

		// The polynomial products run at ~16-bit precision (the lo*lo
		// term of the dual-portion split is negligible at ~1e-5).
		op := ctx.NewOp()
		phi1 := op.MatVecPrecise(ctx.CreateMatrixBuffer(f), polyCoeffs)
		if op.Err() != nil {
			return nil, apps.Metrics{}, op.Err()
		}
		if functional {
			// prices holds Phi(d1) until the final combination.
			for i := 0; i < bn; i++ {
				prices[b0+i] = clamp01(phi1[i], f.At(i, 1))
				_, d2 := dValues(opts[b0+i])
				fillPowers(f.Row(i), d2)
			}
			ctx.Release(tensor.FromSlice(1, bn, phi1))
		}
		phi2 := op.MatVecPrecise(ctx.CreateMatrixBuffer(f), polyCoeffs)
		if op.Err() != nil {
			return nil, apps.Metrics{}, op.Err()
		}
		// Host: final price combination.
		ctx.ChargeHostWork(params.CPUScalarTime(int64(bn) / 8))
		if functional {
			for i := 0; i < bn; i++ {
				o := opts[b0+i]
				p1 := prices[b0+i]
				p2 := clamp01(phi2[i], f.At(i, 1))

				prices[b0+i] = o.S*p1 - o.K*float32(math.Exp(-float64(o.R)*float64(o.T)))*p2
			}
			ctx.Release(tensor.FromSlice(1, bn, phi2))
		}
		ctx.Release(f)
	}
	return prices, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}

// dValues returns the option's Black-Scholes d1 and d2.
func dValues(o Option) (d1, d2 float64) {
	s, k, t, r, v := float64(o.S), float64(o.K), float64(o.T), float64(o.R), float64(o.V)
	d1 = (math.Log(s/k) + (r+v*v/2)*t) / (v * math.Sqrt(t))
	return d1, d1 - v*math.Sqrt(t)
}

// fillPowers writes the normalized power features 1, t, ..., t^9 with
// t = clamp(d/dClamp, [-1,1]).
func fillPowers(row []float32, d float64) {
	t := d / dClamp
	if t > 1 {
		t = 1
	}
	if t < -1 {
		t = -1
	}
	p := 1.0
	for k := range row {
		row[k] = float32(p)
		p *= t
	}
}

// clamp01 clips the polynomial output into the CNDF's range; inputs
// clamped at the domain edge saturate to 0/1 exactly.
func clamp01(v, t float32) float32 {
	if t >= 1 {
		return 1
	}
	if t <= -1 {
		return 0
	}
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// RunGPU charges the GPU implementation: transfer the option book,
// one flop-heavy kernel, transfer prices back.
func RunGPU(g *gpusim.GPU, cfg Config, prec gpusim.Precision) apps.Metrics {
	n := int64(cfg.N)
	end := g.Transfer(0, n*5*4)
	// ~200 flops per option (transcendentals expand on GPU ALUs).
	end = g.Kernel(end, 200*float64(n), n*6*4, prec)
	g.Transfer(end, n*4)
	return apps.Metrics{Elapsed: g.Elapsed(), Energy: g.Energy()}
}
