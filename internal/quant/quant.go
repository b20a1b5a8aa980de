// Package quant implements the quantization and calibration machinery
// of the GPTPU Tensorizer (paper section 6.2.2): symmetric int8
// quantization of host float data, the operator-specific scale-factor
// rules of Equations 4-8, sampling-based range calibration, and the
// requantization helpers device results pass through.
//
// The Edge TPU matrix unit computes on 8-bit integers; GPTPU "carefully
// rescales values into fixed-point numbers" so that the estimated
// output range of the requested operator chain never overflows, which
// is what these rules encode.
package quant

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// QMax is the symmetric int8 quantization ceiling. GPTPU uses the
// symmetric range [-127, 127] so that a value and its negation always
// round-trip identically.
const QMax = 127

// Method selects the quantization policy a kernel requests via the
// flags argument of openctpu_invoke_operator (paper Figure 3 passes
// SCALE).
type Method int

const (
	// MethodScale is the paper's SCALE policy: a single symmetric
	// scale factor derived from the dataset's absolute maximum.
	MethodScale Method = iota
	// MethodSampled estimates the range from a random sample of the
	// input, the optimization section 6.2.2 describes for large
	// datasets ("small subset of input data is representative").
	MethodSampled
)

// Params records how a tensor was mapped to int8. Raw values are
// multiplied by Scale to produce the stored 8-bit integers, matching
// the reverse-engineered model metadata ("an 8-bit integer value in
// the data section is calculated by multiplying its raw value by f",
// paper section 3.3).
type Params struct {
	Scale float32
}

// scaleFor returns the symmetric scale factor for data whose absolute
// maximum is absMax. Zero-range data quantizes with scale 1 so that
// all-zero tensors round-trip exactly. Non-finite ranges (NaN or
// ±Inf absMax) also map to scale 1: QMax/+Inf would yield scale 0 and
// every later dequantization would divide by zero, poisoning results with
// NaN from a single bad input value.
func scaleFor(absMax float32) float32 {
	if absMax <= 0 || math.IsNaN(float64(absMax)) || math.IsInf(float64(absMax), 0) {
		return 1
	}
	return QMax / absMax
}

// SaturateI8 clamps a wide value into int8 range, the behaviour of the
// device's output requantization stage.
func SaturateI8(v int32) int8 {
	if v > QMax {
		return QMax
	}
	if v < -QMax-1 {
		return -QMax - 1
	}
	return int8(v)
}

// roundMagic is 1.5·2²³: adding it to a float32 x with |x| ≤ 2²² lands
// in [2²³, 2²⁴), where the float32 spacing is exactly 1, so the
// addition itself rounds x to the nearest integer, ties to even, and
// leaves that integer in the low mantissa bits.
const roundMagic = 1.5 * (1 << 23)

// RoundToI8 scales and saturates a float into int8, rounding half to
// even. The product saturates in the float domain, before any integer
// conversion (Go leaves converting an out-of-range float to an integer
// implementation-defined: on amd64 int32(3e9) is MinInt32, which used
// to saturate a large positive product to -128). +Inf saturates to
// 127; -Inf and NaN to -128.
func RoundToI8(v, scale float32) int8 {
	// The conversion keeps the product a rounded float32 on platforms
	// that would otherwise fuse it into the magic add.
	x := float32(v * scale)
	if x > QMax {
		x = QMax
	}
	if !(x >= -QMax-1) {
		x = -QMax - 1
	}
	return int8(int32(math.Float32bits(x+roundMagic)) - int32(math.Float32bits(roundMagic)))
}

// Quantize maps m to int8 with a symmetric scale derived from its
// absolute maximum and returns the quantized matrix and parameters.
func Quantize(m *tensor.Matrix) (*tensor.MatrixI8, Params) {
	p := Params{Scale: scaleFor(math.Float32frombits(absMaxBits(m)))}
	return QuantizeWith(m, p), p
}

// ParamsFor picks quantization parameters for m with the Tensorizer's
// exactness-preserving calibration: datasets whose values are already
// integers inside the int8 range quantize losslessly with scale 1
// (this is why the paper's Table 4 reports 0.00% error for Gaussian
// and LUD on integer datasets, and Table 5 reports 0.00 RMSE for
// tpuGemm up to a maximum value of 64). All other data uses the
// symmetric absolute-maximum rule.
func ParamsFor(m *tensor.Matrix) Params {
	p, _, _ := Analyze(m)
	return p
}

// Analyze is the Tensorizer's look at host data before quantizing it:
// it reports ParamsFor's calibration (exactness test, else absolute
// maximum), the extent of the values, and whether every value is
// finite — what the runtime checks before it accepts a buffer.
// Shape-only matrices carry no values: scale 1, an empty extent,
// finite. The parameters of a non-finite matrix are meaningless;
// callers reject it.
func Analyze(m *tensor.Matrix) (p Params, e Extent, finite bool) {
	if m.Data == nil || m.Elems() == 0 {
		return Params{Scale: 1}, Extent{}, true
	}
	if lo, hi, ok := intRange(m); ok {
		return Params{Scale: 1}, Extent{Lo: float32(lo), Hi: float32(hi)}, true
	}
	top := absMaxBits(m)
	absMax := math.Float32frombits(top)
	p = Params{Scale: scaleFor(absMax)}
	e = Extent{Lo: -absMax, Hi: absMax}
	if math.IsInf(float64(p.Scale), 1) {
		// A range this close to zero overflows the scale, and the codes
		// stop being symmetric: zero and negative values quantize to -128.
		// Rare enough to pay a second walk for the signed extremes.
		e.Lo, e.Hi = m.MinMax()
	}
	return p, e, top < infBits
}

// Extent is as much of a matrix's value range as the device's output
// stage needs: the largest code magnitude of the matrix's int8 form, at
// its own calibration scale or any smaller (joint) one, without a walk
// over that form. For int8-exact data it is the integer range (with 0);
// otherwise ±absMax, because at such scales every code lies within
// ±QMax and negating a value negates its code — except when the scale
// overflowed to +Inf, where it is the signed minimum and maximum.
type Extent struct {
	Lo, Hi float32
}

// MaxCode returns max|code| of the int8 form at scale, which must not
// exceed the calibration Analyze picked with e. RoundToI8 is monotone in
// the value, so every code lies between those of Lo and Hi.
func (e Extent) MaxCode(scale float32) int32 {
	lo, hi := int32(RoundToI8(e.Lo, scale)), int32(RoundToI8(e.Hi, scale))
	return max(lo, -lo, hi, -hi)
}

// intRange reports whether every value of m is an integer inside the
// int8 range and, if so, their minimum and maximum (both widened to
// include 0). Non-integer data fails within a few elements, so the walk
// costs nothing there; integer data pays one pass and needs no abs-max
// scan at all.
func intRange(m *tensor.Matrix) (lo, hi int32, ok bool) {
	f := m.Flat()
	for r := 0; r < f.Rows; r++ {
		for _, v := range f.Row(r) {
			if !isInt8(v) {
				return 0, 0, false
			}
			lo, hi = min(lo, int32(v)), max(hi, int32(v))
		}
	}
	return lo, hi, true
}

// isInt8 reports whether v is an integer inside the int8 range, the
// per-value test of the exactness-preserving calibration. The range
// test comes first: converting an out-of-range float to an integer is
// implementation-defined.
func isInt8(v float32) bool {
	return v <= QMax && v >= -QMax-1 && v == float32(int32(v))
}

const (
	absMask = 0x7fffffff // clears a float32's sign bit
	infBits = 0x7f800000 // Float32bits(+Inf): every finite |v| is below, NaN above
)

// absMaxBits returns the largest sign-cleared bit pattern in m (0 for
// an empty matrix). IEEE floats of one sign order like their bit
// patterns, so this is the bits of the absolute maximum — as an
// integer max, which compiles to compare-and-move instead of a branch
// per value, over four independent accumulators. A NaN or ±Inf
// surfaces as a result at or above infBits.
func absMaxBits(m *tensor.Matrix) uint32 {
	var m0, m1, m2, m3 uint32
	f := m.Flat()
	for r := 0; r < f.Rows; r++ {
		s := f.Row(r)
		i := 0
		for ; i+4 <= len(s); i += 4 {
			m0 = max(m0, math.Float32bits(s[i])&absMask)
			m1 = max(m1, math.Float32bits(s[i+1])&absMask)
			m2 = max(m2, math.Float32bits(s[i+2])&absMask)
			m3 = max(m3, math.Float32bits(s[i+3])&absMask)
		}
		for ; i < len(s); i++ {
			m0 = max(m0, math.Float32bits(s[i])&absMask)
		}
	}
	return max(m0, m1, m2, m3)
}

// QuantizeWith maps m to int8 using the provided parameters.
func QuantizeWith(m *tensor.Matrix, p Params) *tensor.MatrixI8 {
	q := tensor.NewI8(m.Rows, m.Cols)
	QuantizeInto(q, m, p)
	return q
}

// QuantizeInto stores m's int8 mapping under p into q, a compact matrix
// of m's shape; m may be a strided view (one instruction's window).
func QuantizeInto(q *tensor.MatrixI8, m *tensor.Matrix, p Params) {
	src := m.Flat()
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		dst := q.Data[r*src.Cols:][:len(row)]
		for i, v := range row {
			dst[i] = RoundToI8(v, p.Scale)
		}
	}
}

// Dequantize reconstructs a float matrix from quantized data.
func Dequantize(q *tensor.MatrixI8, p Params) *tensor.Matrix { return dequantize(q, p.Scale) }

// DequantizeI32 reconstructs a float matrix from a 32-bit accumulator
// matrix produced by a product of two quantized operands: the combined
// scale is the product of the operand scales. CPU-side aggregation in
// GPTPU works on these wide accumulators precisely so this conversion
// happens once, after aggregation (paper section 6.2.1).
func DequantizeI32(acc *tensor.MatrixI32, combined float32) *tensor.Matrix {
	return dequantize(acc, combined)
}

// dequantize divides every code of q by scale into a fresh matrix.
func dequantize[T int8 | int32](q *tensor.Mat[T], scale float32) *tensor.Matrix {
	m := tensor.New(q.Rows, q.Cols)
	inv := 1 / scale
	src := q.Flat()
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		dst := m.Data[r*src.Cols:][:len(row)]
		for i, v := range row {
			dst[i] = float32(v) * inv
		}
	}
	return m
}

// Calibrate returns the (min, max) range of m according to the chosen
// method. MethodSampled inspects ~1/16 of the elements (at least 256)
// using rng; MethodScale scans everything.
func Calibrate(m *tensor.Matrix, method Method, rng *rand.Rand) (min, max float32) {
	if method == MethodScale || m.Elems() <= 256 || rng == nil {
		return m.MinMax()
	}
	n := m.Elems() / 16
	if n < 256 {
		n = 256
	}
	min = float32(math.Inf(1))
	max = float32(math.Inf(-1))
	for i := 0; i < n; i++ {
		r := rng.Intn(m.Rows)
		c := rng.Intn(m.Cols)
		v := m.At(r, c)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// rangeSpan guards |max-min| against zero so the Eq. 5-8 denominators
// stay finite for constant inputs.
func rangeSpan(min, max float32) float64 {
	s := math.Abs(float64(max) - float64(min))
	if s == 0 {
		return 1
	}
	return s
}

// outputScaleGEMM implements Equation 5: the scaling factor for conv2D
// and FullyConnected on a pair of NxN matrices, S = 1/(|max-min|^2 * N).
// The estimate bounds the largest possible accumulated product so the
// rescaled outputs cannot overflow.
func outputScaleGEMM(min, max float32, n int) float32 {
	if n < 1 {
		n = 1
	}
	span := rangeSpan(min, max)
	return float32(1 / (span * span * float64(n)))
}

// outputScaleAddSub implements Equation 6 for pairwise add and sub:
// S = 1/(2 * |max-min|).
func outputScaleAddSub(min, max float32) float32 {
	return float32(1 / (2 * rangeSpan(min, max)))
}

// outputScaleMul implements Equation 7 for pairwise mul:
// S = 1/|max-min|^2.
func outputScaleMul(min, max float32) float32 {
	span := rangeSpan(min, max)
	return float32(1 / (span * span))
}

// outputScaleDefault implements Equation 8 for all other operators:
// S = 1/|max-min|.
func outputScaleDefault(min, max float32) float32 {
	return float32(1 / rangeSpan(min, max))
}

// Op identifies the operator class for scale estimation.
type Op int

const (
	OpGEMM Op = iota // conv2D / FullyConnected chains
	OpAddSub
	OpMul
	OpOther
)

// OutputScale dispatches to the Equation 5-8 rule for op. n is the
// shared matrix dimension (used only by OpGEMM).
func OutputScale(op Op, min, max float32, n int) float32 {
	switch op {
	case OpGEMM:
		return outputScaleGEMM(min, max, n)
	case OpAddSub:
		return outputScaleAddSub(min, max)
	case OpMul:
		return outputScaleMul(min, max)
	default:
		return outputScaleDefault(min, max)
	}
}

// EstimateChainedScale composes the output-range estimate for a
// sequence of operators applied to data in [min, max], the "sequence
// of operators" input to GPTPU's scale derivation (section 6.2.2).
// For example GEMM followed by add on NxN data from 0..n-1 yields the
// paper's worked example bound 2*N*(n-1)^2.
func EstimateChainedScale(ops []Op, min, max float32, n int) float32 {
	lo, hi := float64(min), float64(max)
	for _, op := range ops {
		a := math.Max(math.Abs(lo), math.Abs(hi))
		switch op {
		case OpGEMM:
			hi = a * a * float64(n)
			lo = -hi
		case OpAddSub:
			hi = math.Abs(hi)*2 + 0
			lo = -hi
		case OpMul:
			hi = a * a
			lo = -hi
		default:
			// range-preserving (tanh/relu/crop/ext/mean/max)
		}
	}
	m := math.Max(math.Abs(lo), math.Abs(hi))
	if m == 0 {
		return 1
	}
	return float32(1 / m)
}

// Portion is one portion of a precision split in the form the device
// consumes: its int8 codes and the calibration they were quantized with
// (what ParamsFor picks for the portion's values).
type Portion struct {
	Q *tensor.MatrixI8
	P Params
}

// SplitQuantize decomposes m into a coarse portion whose values are
// exactly representable in int8 (at m's own symmetric scale) and the
// fine residual, 2*QMax times smaller, and quantizes each portion at
// its own ParamsFor calibration. Computing on both portions and
// combining recovers ~16-bit effective precision — the "iteratively
// computing on different portions of raw input numbers" capability the
// paper attributes to GPTPU (section 10). Neither portion is built in
// float32; the tests pin the result bit for bit to that float32
// definition. p must be m's own calibration, ParamsFor(m); a runtime
// buffer has it from the pass that checked its data.
//
// Every coarse value is code/scale for one of m's int8 codes, so the
// coarse portion's calibration and its int8 form are a 256-entry table
// over those codes. The residual is m minus that value: the first pass
// quantizes m and calibrates the residual, the second recomputes the
// residual, quantizes it and maps the codes through the table.
//
// Both int8 forms are pooled scratch (tensor.GetForOverwrite): a
// caller done with them may hand them back with tensor.Put.
func SplitQuantize(m *tensor.Matrix, p Params) (hi, lo Portion) {
	inv := 1 / p.Scale
	// coarse is Dequantize's value for code c. The conversion keeps the
	// product rounded before the residual's subtraction, as it is when
	// the coarse portion is stored.
	coarse := func(c int8) float32 { return float32(float32(c) * inv) }

	q := tensor.GetForOverwrite[int8](m.Rows, m.Cols)
	src := m.Flat()
	var cLo, cHi int32 // range of the codes
	var resTop uint32
	resExact := true
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		dst := q.Data[r*src.Cols:][:len(row)]
		for i, v := range row {
			c := RoundToI8(v, p.Scale)
			dst[i] = c
			cLo, cHi = min(cLo, int32(c)), max(cHi, int32(c))
			d := v - coarse(c)
			resTop = max(resTop, math.Float32bits(d)&absMask)
			if resExact && !isInt8(d) {
				resExact = false
			}
		}
	}

	// The coarse portion's calibration. Its largest magnitude sits at an
	// extreme code, because code/scale is monotone in the code; it is
	// exact when every code present has an int8-exact coarse value.
	hi.P = Params{Scale: 1}
	if !coarseExact(q, cLo, cHi, coarse) {
		top := max(math.Float32bits(coarse(int8(cLo)))&absMask, math.Float32bits(coarse(int8(cHi)))&absMask)
		hi.P.Scale = scaleFor(math.Float32frombits(top))
	}
	var table [256]int8 // code -> coarse portion's code, indexed by uint8(code)
	for c := cLo; c <= cHi; c++ {
		table[uint8(c)] = RoundToI8(coarse(int8(c)), hi.P.Scale)
	}
	lo.P = Params{Scale: 1}
	if !resExact {
		lo.P.Scale = scaleFor(math.Float32frombits(resTop))
	}

	l := tensor.GetForOverwrite[int8](m.Rows, m.Cols)
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		qs := q.Data[r*src.Cols:][:len(row)]
		ls := l.Data[r*src.Cols:][:len(row)]
		for i, v := range row {
			c := qs[i]
			ls[i] = RoundToI8(v-coarse(c), lo.P.Scale)
			qs[i] = table[uint8(c)]
		}
	}
	hi.Q, lo.Q = q, l
	return hi, lo
}

// coarseExact reports whether every code in q (compact, codes within
// [cLo, cHi]) has an int8-exact coarse value. Usually a code that does
// not is present and the scan stops at the first nonzero code; when
// none in the range fails, there is nothing to scan.
func coarseExact(q *tensor.MatrixI8, cLo, cHi int32, coarse func(int8) float32) bool {
	var bad [256]bool
	some := false
	for c := cLo; c <= cHi; c++ {
		if !isInt8(coarse(int8(c))) {
			bad[uint8(c)], some = true, true
		}
	}
	if !some {
		return true
	}
	for _, c := range q.Data {
		if bad[uint8(c)] {
			return false
		}
	}
	return true
}
