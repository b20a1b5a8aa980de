// Conjugate-gradient solver on GPTPU — exploring "additional
// applications on the GPTPU platform" as the paper's contribution (5)
// invites. Each CG iteration's dominant cost, the matrix-vector
// product A*p, maps to FullyConnected instructions; the scalar
// recurrences stay on the host.
//
// Plain int8 products stall CG at the quantization floor, so the
// solver runs the product through Op.MatVecPrecise, the dual-portion
// technique of the paper's section 10: the system matrix splits once
// into coarse and fine portions (kept on its buffer and resident on the
// devices across iterations), the direction vector splits every
// iteration, and three FullyConnected passes reconstruct A*p to ~16-bit
// precision. The program solves one system both ways and prints the
// residuals side by side.
//
//	go run ./examples/conjgrad
package main

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"

	gptpu "repro"
	"repro/internal/tensor"
)

const (
	n     = 256
	iters = 40
)

func main() {
	a, b := system()
	fmt.Printf("conjugate gradient: %dx%d SPD system on 4 Edge TPUs\n", n, n)
	for _, precise := range []bool{false, true} {
		ctx := gptpu.Open(gptpu.Config{Devices: 4})
		op := ctx.NewOp()
		buf := ctx.CreateMatrixBuffer(a)
		matVec, name := op.MatVec, "int8 MatVec"
		if precise {
			matVec, name = op.MatVecPrecise, "MatVecPrecise"
		}
		x, it := solve(func(p []float32) []float32 {
			ap := matVec(buf, p)
			if op.Err() != nil {
				slog.Error("matvec kernel failed", "err", op.Err())
				os.Exit(1)
			}
			return ap
		}, b)
		norm, worst := residual(a, x, b)
		fmt.Printf("  %-13s iterations: %2d   residual norm: %.4f   worst component: %.5f   virtual time: %v\n",
			name, it, norm, worst, ctx.Elapsed())
		ctx.Close()
	}
}

// system returns a symmetric positive-definite system A x = b with
// A = M^T M / n + 4 I.
func system() (*tensor.Matrix, []float32) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.RandUniform(rng, n, n, -1, 1)
	acc := make([]float64, n*n)
	for k := 0; k < n; k++ {
		row := m.Row(k)
		for i, mi := range row {
			for j := i; j < n; j++ {
				acc[i*n+j] += float64(mi) * float64(row[j])
			}
		}
	}
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := float32(acc[i*n+j] / n)
			if i == j {
				v += 4
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b := make([]float32, n)
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	return a, b
}

// solve runs CG from x = 0 until the recurrence residual falls below
// 1e-4 or iters is reached, and returns x and the iteration count.
func solve(matVec func([]float32) []float32, b []float32) ([]float32, int) {
	x := make([]float32, n)
	r := append([]float32(nil), b...)
	p := append([]float32(nil), b...)
	rs := dot(r, r)
	for it := 1; it <= iters; it++ {
		ap := matVec(p)
		alpha := rs / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := dot(r, r)
		if math.Sqrt(float64(rsNew)) < 1e-4 {
			return x, it
		}
		for i := range p {
			p[i] = r[i] + rsNew/rs*p[i]
		}
		rs = rsNew
	}
	return x, iters
}

// residual returns the norm and the largest component of A x - b,
// computed exactly on the host.
func residual(a *tensor.Matrix, x, b []float32) (norm, worst float64) {
	for i := 0; i < n; i++ {
		var acc float64
		for j, v := range a.Row(i) {
			acc += float64(v) * float64(x[j])
		}
		d := acc - float64(b[i])
		norm += d * d
		worst = math.Max(worst, math.Abs(d))
	}
	return math.Sqrt(norm), worst
}

func dot(a, b []float32) float32 {
	var acc float64
	for i := range a {
		acc += float64(a[i]) * float64(b[i])
	}
	return float32(acc)
}
