// Package gaussian is the linear-algebra workload of the evaluation
// (Table 3: 1 x 4K x 4K, Rodinia [76] baseline): solving a linear
// system by Gaussian elimination. Following section 7.2.4, the GPTPU
// implementation performs each row reduction with the pair-wise mul
// instruction — the multiplier column broadcast against the pivot row
// — followed by a pair-wise sub of the trailing sub-matrix.
package gaussian

import (
	"math/rand"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// Config describes one run: eliminate an N x (N+1) augmented system.
type Config struct {
	N    int
	Seed int64
}

// Generate builds a diagonally dominant augmented matrix [A | b].
func (c Config) Generate() *tensor.Matrix {
	rng := rand.New(rand.NewSource(c.Seed + 5))
	m := tensor.RandUniform(rng, c.N, c.N+1, -1, 1)
	for i := 0; i < c.N; i++ {
		m.Set(i, i, m.At(i, i)+float32(c.N)/4)
	}
	return m
}

// eliminate performs exact float forward elimination in place (the
// Rodinia-style baseline kernel and accuracy oracle).
func eliminate(a *tensor.Matrix) {
	n := a.Rows
	for k := 0; k < n-1; k++ {
		piv := a.At(k, k)
		rowK := a.Row(k)
		for i := k + 1; i < n; i++ {
			f := a.At(i, k) / piv
			rowI := a.Row(i)
			for j := k; j < a.Cols; j++ {
				rowI[j] -= f * rowK[j]
			}
		}
	}
}

// BackSubstitute solves the eliminated upper-triangular system.
func BackSubstitute(a *tensor.Matrix) []float32 {
	n := a.Rows
	x := make([]float32, n)
	for i := n - 1; i >= 0; i-- {
		v := a.At(i, n)
		for j := i + 1; j < n; j++ {
			v -= a.At(i, j) * x[j]
		}
		x[i] = v / a.At(i, i)
	}
	return x
}

// RunCPU executes the baseline elimination. a is modified in place
// when non-nil.
func RunCPU(cpu *blas.CPU, threads int, cfg Config, a *tensor.Matrix) (*tensor.Matrix, apps.Metrics) {
	if a != nil {
		eliminate(a)
	}
	n := int64(cfg.N)
	// ~n^3/3 multiply-subtract pairs streaming over the trailing
	// sub-matrices.
	cpu.ChargeStream(0, n*n*n/3, n*n*n/3*4, threads)
	return a, apps.Metrics{Elapsed: cpu.Elapsed(), Energy: cpu.Energy()}
}

// panelSize batches this many pivots per blocked round. Within the
// panel, each row reduction uses the pair-wise mul instruction on
// broadcast matrices (the section 7.2.4 mapping); the accumulated
// rank-panelSize trailing update then applies in one tpuGemm +
// host-side subtraction, which amortizes the per-pivot transfer cost
// the same way every optimized blocked elimination does.
const panelSize = 64

// RunTPU executes the GPTPU elimination. Returns the eliminated
// matrix (fresh copy) or nil in timing-only mode.
func RunTPU(ctx *gptpu.Context, cfg Config, a *tensor.Matrix) (*tensor.Matrix, apps.Metrics, error) {
	functional := ctx.Core().Functional()
	n := cfg.N
	var work *tensor.Matrix
	if functional {
		work = a.Clone()
	}
	op := ctx.NewOp()
	params := ctx.Core().Params()
	// Every operand and product below is handed back to the context
	// once its Mul or Gemm has returned and been subtracted, so the next
	// step's matrices reuse the memory.

	for k0 := 0; k0 < n-1; k0 += panelSize {
		kEnd := k0 + panelSize
		if kEnd > n-1 {
			kEnd = n - 1
		}
		p := kEnd - k0
		rem := n - kEnd // trailing rows below the panel
		cols := n + 1 - kEnd

		// Within-panel row reductions use the pair-wise mul instruction
		// per pivot ("GPTPU uses mul to perform each row reduction"):
		// the multiplier column broadcast against the pivot row over the
		// panel's rows. The trailing matrix stays on the host in float
		// precision; the subtraction folds into the aggregation pass.
		for k := k0; k < kEnd-1; k++ {
			pr := kEnd - (k + 1) // panel rows below this pivot
			pc := n + 1 - k
			if pr <= 0 {
				break
			}
			mulA, mulB := ctx.Matrix(pr, pc), ctx.Matrix(pr, pc)
			if functional {
				rowK := work.Row(k)[k:]
				for i := 0; i < pr; i++ {
					f := work.At(k+1+i, k) / work.At(k, k)
					rowA := mulA.Row(i)
					for j := range rowA {
						rowA[j] = f
					}
					copy(mulB.Row(i), rowK)
				}
			}
			prod := op.Mul(ctx.CreateMatrixBuffer(mulA), ctx.CreateMatrixBuffer(mulB))
			if op.Err() != nil {
				return nil, apps.Metrics{}, op.Err()
			}
			if functional {
				trail := work.View(k+1, k, pr, pc)
				for i := 0; i < pr; i++ {
					rowT, rowP := trail.Row(i), prod.Row(i)
					for j := range rowT {
						rowT[j] -= rowP[j]
					}
					trail.Set(i, 0, 0)
				}
			}
			for _, m := range []*tensor.Matrix{mulA, mulB, prod} {
				ctx.Release(m)
			}
			ctx.Core().ChargeHostWork(params.AggTime(int64(pr) * int64(pc)))
		}
		if rem <= 0 {
			continue
		}

		// Trailing block: the rank-p update accumulated over the panel
		// applies as one tpuGemm (L: rem x p multipliers, U: p x cols
		// pivot rows) plus the host-side subtraction.
		elim := ctx.Matrix(rem, p)    // multipliers L
		pivots := ctx.Matrix(p, cols) // pivot rows U
		if functional {
			for i := 0; i < rem; i++ {
				row := elim.Row(i)
				for k := k0; k < kEnd; k++ {
					// Multiplier of trailing row i against pivot k,
					// accounting for the updates of earlier pivots in
					// the panel (forward substitution through the
					// panel's unit-lower factor).
					f := work.At(kEnd+i, k)
					for j := k0; j < k; j++ {
						f -= row[j-k0] * work.At(j, k)
					}
					row[k-k0] = f / work.At(k, k)
				}
				for k := k0; k < kEnd; k++ {
					work.Set(kEnd+i, k, 0)
				}
			}
			for k := k0; k < kEnd; k++ {
				copy(pivots.Row(k-k0), work.Row(k)[kEnd:])
			}
		}
		// Host multiplier derivation: rem * p^2 multiply-adds.
		ctx.Core().ChargeHostWork(params.AggTime(int64(rem) * int64(p) * int64(p) / 2))

		prod := op.Gemm(ctx.CreateMatrixBuffer(elim), ctx.CreateMatrixBuffer(pivots))
		if op.Err() != nil {
			return nil, apps.Metrics{}, op.Err()
		}
		if functional {
			trail := work.View(kEnd, kEnd, rem, cols)
			for i := 0; i < rem; i++ {
				rowT, rowP := trail.Row(i), prod.Row(i)
				for j := range rowT {
					rowT[j] -= rowP[j]
				}
			}
		}
		for _, m := range []*tensor.Matrix{elim, pivots, prod} {
			ctx.Release(m)
		}
		ctx.Core().ChargeHostWork(params.AggTime(int64(rem) * int64(cols)))
	}
	return work, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}

// RunGPU charges the GPU implementation (FP16 on the RTX per section
// 9.4): per pivot two small kernels (Rodinia's Fan1/Fan2).
func RunGPU(g *gpusim.GPU, cfg Config, prec gpusim.Precision) apps.Metrics {
	n := int64(cfg.N)
	end := g.Transfer(0, n*(n+1)*4)
	for k := int64(0); k < n-1; k++ {
		rem := float64(n - k)
		end = g.Kernel(end, rem, int64(rem)*4, prec)           // Fan1: multipliers
		end = g.Kernel(end, 2*rem*rem, int64(rem*rem)*4, prec) // Fan2: trailing update
	}
	g.Transfer(end, n*(n+1)*4)
	return apps.Metrics{Elapsed: g.Elapsed(), Energy: g.Energy()}
}
