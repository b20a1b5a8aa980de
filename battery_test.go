package gptpu

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// The functional verification battery: every public operator, on
// random operands, against an exact float oracle, with a
// quantization-aware error budget. Hardware bring-up runs exactly this
// kind of battery; here it is the acceptance gate for refactorings of
// the device simulator and the Tensorizer (any semantic drift trips a
// budget).

// check is one battery entry: the measured error (RMSE, or relative
// error for scalars) and the largest acceptable one.
type check struct {
	name        string
	err, budget float64
	detail      string
}

// battery runs every check with the given seed on a context over the
// given device count. Budgets reflect each operator's quantization
// physics: one int8 rounding for element-wise paths, composed roundings
// for products, the tanh LUT's output grid, and so on.
func battery(seed int64, devices int) []check {
	rng := rand.New(rand.NewSource(seed))
	ctx := Open(Config{Devices: devices})
	op := ctx.NewOp()

	const n = 96
	a := tensor.RandUniform(rng, n, n, -6, 6)
	b := tensor.RandUniform(rng, n, n, -6, 6)
	pos := tensor.RandUniform(rng, n, n, 0.5, 9)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)
	bpos := ctx.CreateMatrixBuffer(pos)

	var out []check
	add := func(name string, err, budget float64, detail string) {
		out = append(out, check{name, err, budget, detail})
	}
	elementwise := func(f func(x, y float32) float32) *tensor.Matrix {
		ref := tensor.New(n, n)
		for i := range ref.Data {
			ref.Data[i] = f(a.Data[i], b.Data[i])
		}
		return ref
	}

	// Pairwise ops: one joint-scale rounding in, one requantized int8
	// out => ~2 quantization steps of the range.
	add("add", tensor.RMSE(elementwise(func(x, y float32) float32 { return x + y }), op.Add(ba, bb)),
		0.02, "pairwise, joint scale")
	add("sub", tensor.RMSE(elementwise(func(x, y float32) float32 { return x - y }), op.Sub(ba, bb)),
		0.05, "pairwise, joint scale (differences cancel)")
	add("mul", tensor.RMSE(elementwise(func(x, y float32) float32 { return x * y }), op.Mul(ba, bb)),
		0.02, "pairwise, composed scales")

	// Element-wise.
	add("tanh", tensor.RMSE(elementwise(func(x, _ float32) float32 { return float32(math.Tanh(float64(x))) }), op.Tanh(ba)),
		0.02, "LUT over int8 inputs")
	add("ReLu", tensor.RMSE(elementwise(func(x, _ float32) float32 { return max(x, 0) }), op.ReLU(ba)),
		0.01, "sign-exact")

	// Matrix-wise reductions (scalar error relative to the value).
	var mean float64
	top := float32(math.Inf(-1))
	for _, v := range pos.Data {
		mean += float64(v)
		top = max(top, v)
	}
	mean /= float64(pos.Elems())
	add("mean", math.Abs(float64(op.Mean(bpos))-mean)/mean, 0.01, "tile sums recombined on CPU")
	add("max", math.Abs(float64(op.Max(bpos)-top))/float64(top), 0.01, "exact up to input rounding")

	// Data movement (must be exact in quantized space).
	add("crop", tensor.RMSE(a.View(8, 8, 16, 16).Clone(), op.Crop(ba, 8, 8, 16, 16)), 0.01, "window extraction")
	ext := op.Ext(ba, n+32, n+32)
	var padErr float64
	for r := n; r < n+32; r++ {
		for c := 0; c < n+32; c++ {
			padErr += math.Abs(float64(ext.At(r, c)))
		}
	}
	add("ext", padErr, 0, "padding must be exactly zero")

	// Arithmetic ops.
	refMM := blas.NaiveGemm(a, b)
	add("conv2D(GEMM)", tensor.RMSE(refMM, op.Gemm(ba, bb)), 0.02, "tpuGemm, wide partials")
	add("FullyConnected(GEMM)", tensor.RMSE(refMM, op.GemmFC(ba, bb)), 0.02, "FC algorithm")
	add("GemmPrecise", tensor.RMSE(refMM, op.GemmPrecise(ba, bb)), 0.001, "dual-portion (16-bit effective)")

	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	add("FullyConnected(vec)", tensor.RMSE(tensor.FromSlice(1, n, blas.MatVec(a, x)), tensor.FromSlice(1, n, op.MatVec(ba, x))),
		0.03, "matrix-vector")

	k := tensor.FromSlice(3, 3, []float32{.1, .1, .1, .1, .2, .1, .1, .1, .1})
	add("conv2D(stencil)", tensor.RMSE(convRef(pos, k), op.Conv2D(bpos, ctx.CreateMatrixBuffer(k))), 0.02, "3x3 unstrided")

	if err := op.Err(); err != nil {
		add("runtime", math.Inf(1), 0, err.Error())
	}

	// Integer exactness: the calibration must make small-int products
	// exact.
	ai := tensor.RandPositiveInts(rng, 64, 64, 11)
	bi := tensor.RandPositiveInts(rng, 64, 64, 11)
	ctx2 := Open(Config{Devices: devices})
	got := ctx2.NewOp().Gemm(ctx2.CreateMatrixBuffer(ai), ctx2.CreateMatrixBuffer(bi))
	inexact := 0.0
	if !got.Equal(blas.NaiveGemm(ai, bi)) {
		inexact = 1
	}
	add("integer-exactness", inexact, 0, "small-int GEMM must be bit-exact")
	return out
}

// convRef is the float oracle of an unstrided, zero-padded conv2D.
func convRef(a, k *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			var acc float64
			for p := 0; p < k.Rows && i+p < a.Rows; p++ {
				for q := 0; q < k.Cols && j+q < a.Cols; q++ {
					acc += float64(a.At(i+p, j+q)) * float64(k.At(p, q))
				}
			}
			out.Set(i, j, float32(acc))
		}
	}
	return out
}

func TestBatteryPasses(t *testing.T) {
	for _, devices := range []int{1, 4} {
		cs := battery(1, devices)
		if len(cs) < 14 {
			t.Fatalf("battery too small: %d checks", len(cs))
		}
		for _, c := range cs {
			if !(c.err <= c.budget) {
				t.Errorf("%d device(s): %s err %.6f over budget %.6f (%s)", devices, c.name, c.err, c.budget, c.detail)
			}
		}
	}
}

func TestBatteryIsSeedStable(t *testing.T) {
	a := battery(7, 1)
	b := battery(7, 1)
	for i := range a {
		if a[i].err != b[i].err {
			t.Fatalf("check %s not deterministic: %v vs %v", a[i].name, a[i].err, b[i].err)
		}
	}
}
