// Package lud is the LU-decomposition workload of the evaluation
// (Table 3: 1 x 4K x 4K, Rodinia [76] baseline). The GPTPU
// implementation follows the recursive algorithm [74] the paper cites
// (section 7.2.3): crop partitions the matrix into quadrants, the
// panel factorization and triangular solves stay on the host, and the
// dominant Schur-complement updates run on the Edge TPUs via tpuGemm
// (conv2D) and pair-wise sub.
//
// Because the recursion serializes the four partitions, only the
// Schur updates parallelize across devices — which is why LUD is the
// one application whose multi-TPU scaling flattens in Figure 8(b).
package lud

import (
	"math/rand"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// BaseSize is the host-factorized leaf size (one Edge TPU tile).
const BaseSize = 128

// Config describes one run: factor an N x N matrix (N a power of two
// at least BaseSize).
type Config struct {
	N    int
	Seed int64
}

// Generate builds a diagonally dominant random matrix (LU without
// pivoting is stable on it).
func (c Config) Generate() *tensor.Matrix {
	rng := rand.New(rand.NewSource(c.Seed + 4))
	m := tensor.RandUniform(rng, c.N, c.N, -1, 1)
	for i := 0; i < c.N; i++ {
		m.Set(i, i, m.At(i, i)+float32(c.N)/4)
	}
	return m
}

// hostLU factors a (small) matrix in place with Doolittle's method,
// returning the combined LU form (unit lower diagonal implied).
func hostLU(a *tensor.Matrix) {
	n := a.Rows
	for k := 0; k < n; k++ {
		piv := a.At(k, k)
		for i := k + 1; i < n; i++ {
			l := a.At(i, k) / piv
			a.Set(i, k, l)
			rowI, rowK := a.Row(i), a.Row(k)
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
}

// forwardSolve computes X with L*X = B for unit-lower-triangular L
// (stored in lu's strict lower part), overwriting b.
func forwardSolve(lu, b *tensor.Matrix) {
	n := lu.Rows
	for i := 1; i < n; i++ {
		rowI := b.Row(i)
		for k := 0; k < i; k++ {
			l := lu.At(i, k)
			if l == 0 {
				continue
			}
			rowK := b.Row(k)
			for j := range rowI {
				rowI[j] -= l * rowK[j]
			}
		}
	}
}

// rightSolve computes X with X*U = B for upper-triangular U (stored
// in lu's upper part), overwriting b.
func rightSolve(lu, b *tensor.Matrix) {
	n := lu.Rows
	for j := 0; j < n; j++ {
		pj := lu.At(j, j)
		for i := 0; i < b.Rows; i++ {
			row := b.Row(i)
			v := row[j]
			for k := 0; k < j; k++ {
				v -= row[k] * lu.At(k, j)
			}
			row[j] = v / pj
		}
	}
}

// SplitLU unpacks a combined LU matrix into explicit L (unit
// diagonal) and U factors, for verification.
func SplitLU(lu *tensor.Matrix) (l, u *tensor.Matrix) {
	n := lu.Rows
	l, u = tensor.New(n, n), tensor.New(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, lu.At(i, j))
			} else {
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	return l, u
}

// RunCPU executes the Rodinia-style host factorization. a may be nil
// for timing-only runs; it is factored in place when present.
func RunCPU(cpu *blas.CPU, threads int, cfg Config, a *tensor.Matrix) (*tensor.Matrix, apps.Metrics) {
	if a != nil {
		hostLU(a)
	}
	// LU is 2/3 n^3 flops through Rodinia's hand-written loops: charge
	// the equivalent of a naive GEMM with the inner dimension n/3.
	n := int64(cfg.N)
	cpu.ChargeNaiveGemm(0, n, n, n/3, threads)
	return a, apps.Metrics{Elapsed: cpu.Elapsed(), Energy: cpu.Energy()}
}

// RunTPU executes the recursive GPTPU implementation. a is factored
// logically (a fresh combined-LU matrix is returned); nil input runs
// timing-only.
func RunTPU(ctx *gptpu.Context, cfg Config, a *tensor.Matrix) (*tensor.Matrix, apps.Metrics, error) {
	functional := ctx.Functional()
	var work *tensor.Matrix
	if functional {
		work = a.Clone()
	} else {
		work = tensor.New(cfg.N, cfg.N)
	}
	op := ctx.NewOp()
	r := &runner{ctx: ctx, op: op, functional: functional}
	r.factor(work)
	if op.Err() != nil {
		return nil, apps.Metrics{}, op.Err()
	}
	return work, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}

type runner struct {
	ctx        *gptpu.Context
	op         *gptpu.Op
	functional bool
}

// chargeHostFlops charges host time for triangular solves and leaf
// factorizations at the CPU baseline's GEMM rate.
func (r *runner) chargeHostFlops(flops float64) {
	p := r.ctx.Params()
	r.ctx.ChargeHostWork(timing.FromSeconds(flops / p.CPU.GemmFlops))
}

// factor computes the combined LU of a in place (recursively).
func (r *runner) factor(a *tensor.Matrix) {
	n := a.Rows
	if n <= BaseSize {
		if r.functional {
			hostLU(a)
		}
		r.chargeHostFlops(2.0 / 3.0 * float64(n) * float64(n) * float64(n))
		return
	}
	h := n / 2
	// Quadrant views: the device-side crop instruction realizes this
	// partitioning; host-side we keep views to avoid copying twice.
	a11 := a.View(0, 0, h, h)
	a12 := a.View(0, h, h, n-h)
	a21 := a.View(h, 0, n-h, h)
	a22 := a.View(h, h, n-h, n-h)

	r.factor(a11)

	// Triangular solves on the host (h^2 * (n-h) multiply-adds each).
	if r.functional {
		forwardSolve(a11, a12)
		rightSolve(a11, a21)
	}
	r.chargeHostFlops(2 * float64(h) * float64(h) * float64(n-h))

	// Schur update on the device: A22 -= L21 * U12 via tpuGemm + sub.
	var l21m, u12m *tensor.Matrix
	if r.functional {
		l21m, u12m = a21.Clone(), a12.Clone()
	} else {
		l21m, u12m = tensor.New(n-h, h), tensor.New(h, n-h)
	}
	bl := r.ctx.CreateMatrixBuffer(l21m)
	bu := r.ctx.CreateMatrixBuffer(u12m)
	prod := r.op.Gemm(bl, bu)
	if r.op.Err() != nil {
		return
	}
	bp := r.ctx.CreateMatrixBuffer(prod)
	b22 := r.ctx.CreateMatrixBuffer(a22.Clone())
	diff := r.op.Sub(b22, bp)
	if r.op.Err() != nil {
		return
	}
	if r.functional {
		a22.CopyFrom(diff)
	}
	r.factor(a22)
}

// RunGPU charges the GPU implementation: blocked right-looking LU
// with the Schur updates as GEMM kernels.
func RunGPU(g *gpusim.GPU, cfg Config, prec gpusim.Precision) apps.Metrics {
	n := int64(cfg.N)
	end := g.Transfer(0, n*n*4)
	blocks := cfg.N / BaseSize
	for b := 0; b < blocks; b++ {
		rem := float64(cfg.N - b*BaseSize)
		// Panel + triangular solves (bandwidth-bound).
		end = g.Kernel(end, 2*rem*BaseSize*BaseSize, int64(rem)*BaseSize*4, prec)
		// Trailing GEMM update.
		end = g.Kernel(end, 2*rem*rem*BaseSize, int64(rem*rem)*4, prec)
	}
	g.Transfer(end, n*n*4)
	return apps.Metrics{Elapsed: g.Elapsed(), Energy: g.Energy()}
}
