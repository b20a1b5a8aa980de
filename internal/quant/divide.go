package quant

import "math/bits"

// Divider divides int32 numerators by one fixed positive divisor with
// round-half-away-from-zero, the rounding of the device's output
// requantization stage, using a multiply and a shift instead of a
// hardware divide.
//
// For n < 2^32 and a divisor d <= 2^31, floor(n/d) = floor(n*c / 2^63)
// with c = ceil(2^63/d): writing c*d = 2^63 + e with 0 <= e < d, the
// product exceeds n/d by e*n/(d*2^63) < 1/d, which never carries the
// quotient past its next integer. The rounded magnitude |v| + d/2 stays
// below 2^32 for every int32 v.
type Divider struct {
	half uint64 // d/2, the rounding bias
	mul  uint64 // ceil(2^63 / d)
}

// NewDivider prepares division by d, which must be positive.
func NewDivider(d int32) Divider {
	if d < 1 {
		panic("quant: divisor must be positive")
	}
	return Divider{half: uint64(d / 2), mul: (1<<63 + uint64(d) - 1) / uint64(d)}
}

// RoundDiv returns v/d rounded half away from zero.
func (q Divider) RoundDiv(v int32) int32 {
	s := v >> 31                          // 0, or -1 for a negative v
	n := uint64(uint32((v^s)-s)) + q.half // |v| + d/2 (|MinInt32| wraps to 2^31 as a uint32)
	hi, lo := bits.Mul64(q.mul, n)        // n*c as a 128-bit product
	r := int32(hi<<1 | lo>>63)            // bits 63..94 of it: floor(n*c / 2^63)
	return (r ^ s) - s
}
