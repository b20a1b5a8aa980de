package tensor

import "math/rand"

// RandUniform fills a new rows x cols matrix with uniform values in
// [lo, hi) drawn from rng. The synthetic accuracy datasets of Table 4
// ("randomly generated datasets with various ranges of values") use
// this generator.
func RandUniform(rng *rand.Rand, rows, cols int, lo, hi float32) *Matrix {
	m := New(rows, cols)
	span := hi - lo
	for i := range m.Data {
		m.Data[i] = lo + span*rng.Float32()
	}
	return m
}

// RandPositiveInts fills a new rows x cols matrix with integer values
// drawn uniformly from [0, max], matching the Table 5 workload
// ("1024x1024 matrices with positive integers and maximum input values
// ranging from 2 to 128").
func RandPositiveInts(rng *rand.Rand, rows, cols, max int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Intn(max + 1))
	}
	return m
}
