package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// sink keeps each benchmarked result live.
var sink *tensor.Matrix

// BenchmarkGemm times the float32 reference at the serving path's 32³
// products, the route workload's 128³ and gemm_lib's 512³ references.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		rng := rand.New(rand.NewSource(1))
		x := tensor.RandUniform(rng, n, n, 0, 1)
		y := tensor.RandUniform(rng, n, n, 0, 1)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = Gemm(x, y)
			}
			b.ReportMetric(float64(2*n*n*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkInt8Gemm times the FBGEMM-style baseline on Table 5's
// positive integers, where every depth block is one-signed, and on
// signed codes, where every block takes the saturating serial loop.
func BenchmarkInt8Gemm(b *testing.B) {
	const n = 256
	for _, c := range []struct {
		name   string
		lo, hi float32
	}{{"positive", 0, 128}, {"signed", -100, 100}} {
		rng := rand.New(rand.NewSource(2))
		x := tensor.RandUniform(rng, n, n, c.lo, c.hi)
		y := tensor.RandUniform(rng, n, n, c.lo, c.hi)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = Int8Gemm(x, y)
			}
		})
	}
}
