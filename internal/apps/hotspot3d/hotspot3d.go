// Package hotspot3d is the physics-simulation workload of the
// evaluation (Table 3: 8 x 8K x 8K, Rodinia [76] baseline): thermal
// simulation of a 3D-stacked chip. Each iteration updates every grid
// point with a weighted average of its in-plane neighbours ("the
// point's closest neighbors in 8 different directions", section
// 7.2.2) plus vertical coupling and the local power dissipation.
//
// The GPTPU implementation maps the in-plane update to a 3x3 conv2D
// without striding — the natural fit the paper identifies — and folds
// the cheap vertical/power terms into the host aggregation pass. Each
// iteration produces a fresh temperature grid, so the buffers must be
// requantized and re-shipped every round: data movement dominates,
// which is why HotSpot3D shows the paper's smallest speedup (1.14x).
package hotspot3d

import (
	"math/rand"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// Thermal model coefficients (weighted-average form of the Rodinia
// kernel: in-plane neighbours, vertical neighbours, power injection).
const (
	cCenter = 0.4
	cPlane  = 0.05 // each of 8 in-plane directions (centered 3x3)
	cVert   = 0.05 // each vertical neighbour
	cPower  = 0.1  // power-to-temperature injection
	ambient = 45.0 // boundary/ambient temperature
)

// Config describes a run: Layers stacked N x N grids for Iters steps.
// Hotspots > 0 switches the power maps from uniform noise to a
// floorplan-like layout: that many rectangular high-power blocks per
// layer over a low ambient draw, the shape of real chip power maps.
type Config struct {
	N        int
	Layers   int
	Iters    int
	Hotspots int
	Seed     int64
}

func (c Config) layers() int {
	if c.Layers <= 0 {
		return 8
	}
	return c.Layers
}

func (c Config) iters() int {
	if c.Iters <= 0 {
		return 10
	}
	return c.Iters
}

// Generate builds the initial temperature stack and per-layer power
// maps.
func (c Config) Generate() (temp, power []*tensor.Matrix) {
	rng := rand.New(rand.NewSource(c.Seed + 3))
	for z := 0; z < c.layers(); z++ {
		t := tensor.RandUniform(rng, c.N, c.N, 60, 80)
		var p *tensor.Matrix
		if c.Hotspots > 0 {
			// Floorplan-like layout: low ambient draw plus rectangular
			// high-power blocks (functional units).
			p = tensor.RandUniform(rng, c.N, c.N, 0, 1)
			for h := 0; h < c.Hotspots; h++ {
				hw := c.N/8 + rng.Intn(c.N/8+1)
				hh := c.N/8 + rng.Intn(c.N/8+1)
				r0 := rng.Intn(max(c.N-hh, 1))
				c0 := rng.Intn(max(c.N-hw, 1))
				level := 6 + 4*rng.Float32()
				for r := r0; r < r0+hh && r < c.N; r++ {
					row := p.Row(r)
					for cc := c0; cc < c0+hw && cc < c.N; cc++ {
						row[cc] = level
					}
				}
			}
		} else {
			p = tensor.RandUniform(rng, c.N, c.N, 0, 10)
		}
		temp = append(temp, t)
		power = append(power, p)
	}
	return temp, power
}

// stencilKernel is the centered 3x3 weighted-average kernel. The Edge
// TPU conv anchors windows at the top-left (Equation 9), so callers
// shift the input by (1,1) — i.e. convolve the grid padded with a
// one-cell ambient border.
func stencilKernel() *tensor.Matrix {
	k := tensor.New(3, 3)
	k.Fill(cPlane)
	k.Set(1, 1, cCenter)
	return k
}

// reference computes one exact float iteration (the CPU baseline
// kernel and the accuracy oracle).
func reference(temp, power []*tensor.Matrix) []*tensor.Matrix {
	nz := len(temp)
	n := temp[0].Rows
	out := make([]*tensor.Matrix, nz)
	at := func(m *tensor.Matrix, r, c int) float64 {
		if r < 0 || c < 0 || r >= m.Rows || c >= m.Cols {
			return ambient
		}
		return float64(m.At(r, c))
	}
	for z := 0; z < nz; z++ {
		o := tensor.New(n, n)
		up, down := z-1, z+1
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				acc := cCenter * at(temp[z], r, c)
				for dr := -1; dr <= 1; dr++ {
					for dc := -1; dc <= 1; dc++ {
						if dr == 0 && dc == 0 {
							continue
						}
						acc += cPlane * at(temp[z], r+dr, c+dc)
					}
				}
				vu, vd := ambient, ambient
				if up >= 0 {
					vu = at(temp[up], r, c)
				}
				if down < nz {
					vd = at(temp[down], r, c)
				}
				acc += cVert*vu + cVert*vd
				acc += cPower * float64(power[z].At(r, c))
				o.Set(r, c, float32(acc))
			}
		}
		out[z] = o
	}
	return out
}

// RunCPU executes the Rodinia-style baseline for cfg.Iters iterations
// on threads cores. temp/power may be nil for timing-only runs.
func RunCPU(cpu *blas.CPU, threads int, cfg Config, temp, power []*tensor.Matrix) ([]*tensor.Matrix, apps.Metrics) {
	n, nz := int64(cfg.N), int64(cfg.layers())
	now := cpu.Elapsed()
	for it := 0; it < cfg.iters(); it++ {
		if temp != nil {
			temp = reference(temp, power)
		}
		// ~15 flops per point; reads the layer + both neighbours +
		// power, writes the output.
		now = cpu.ChargeStencil(now, nz*n*n, nz*n*n*4*4, threads)
	}
	return temp, apps.Metrics{Elapsed: cpu.Elapsed(), Energy: cpu.Energy()}
}

// padInto writes m into out, (m.Rows+2) x (m.Cols+2), with a one-cell
// ambient border on top/left (and bottom/right so the anchored conv
// covers the full centered window).
func padInto(out, m *tensor.Matrix) {
	out.Fill(ambient)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r + 1)[1:1+m.Cols], m.Row(r))
	}
}

// RunTPU executes the GPTPU implementation: per layer per iteration
// one 3x3 conv2D instruction stream; vertical coupling and power
// injection fold into the host aggregation pass that GPTPU already
// performs for downloaded results.
//
// Each iteration pads the grids into fresh buffers (fresh identities),
// so quantization and transfer costs recur every round. The grids
// live in memory recycled through the context: a pad goes back once
// its conv returns, a conv result once its layer is folded, and the
// previous iteration's grids once the next ones exist (the caller's
// input never). In timing-only mode Matrix is shape-only, so no grid
// is materialized at all.
func RunTPU(ctx *gptpu.Context, cfg Config, temp, power []*tensor.Matrix) ([]*tensor.Matrix, apps.Metrics, error) {
	nz := cfg.layers()
	kb := ctx.CreateMatrixBuffer(stencilKernel())
	functional := ctx.Functional()
	op := ctx.NewOp()
	cpuAgg := func(elems int64) {
		// Host-side vertical + power fold: ~4 flops per point.
		ctx.ChargeHostWork(ctx.Params().AggTime(elems * 2))
	}
	pads := make([]*tensor.Matrix, nz)
	bufs := make([]*gptpu.Buffer, nz)
	conv := make([]*tensor.Matrix, nz)
	for it := 0; it < cfg.iters(); it++ {
		for z := 0; z < nz; z++ {
			pads[z] = ctx.Matrix(cfg.N+2, cfg.N+2)
			if functional {
				padInto(pads[z], temp[z])
			}
			bufs[z] = ctx.CreateMatrixBuffer(pads[z])
		}
		for z := 0; z < nz; z++ {
			// Anchored conv over the padded grid computes the centered
			// 3x3 weighted average for every interior point: the top-left
			// N x N of the result.
			conv[z] = op.Conv2D(bufs[z], kb)
			if op.Err() != nil {
				return nil, apps.Metrics{}, op.Err()
			}
			ctx.Release(pads[z])
		}
		if functional {
			next := make([]*tensor.Matrix, nz)
			for z := 0; z < nz; z++ {
				o := ctx.Matrix(cfg.N, cfg.N)
				for r := 0; r < cfg.N; r++ {
					for c := 0; c < cfg.N; c++ {
						acc := float64(conv[z].At(r, c))
						vu, vd := ambient, ambient
						if z > 0 {
							vu = float64(temp[z-1].At(r, c))
						}
						if z < nz-1 {
							vd = float64(temp[z+1].At(r, c))
						}
						acc += cVert*vu + cVert*vd + cPower*float64(power[z].At(r, c))
						o.Set(r, c, float32(acc))
					}
				}
				ctx.Release(conv[z])
				next[z] = o
			}
			if it > 0 {
				for _, g := range temp {
					ctx.Release(g)
				}
			}
			temp = next
		}
		cpuAgg(int64(nz) * int64(cfg.N) * int64(cfg.N))
	}
	return temp, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, op.Err()
}

// RunGPU charges the GPU implementation (FP16 per section 9.4): the
// stack transfers once, each iteration is one bandwidth-bound stencil
// kernel per layer.
func RunGPU(g *gpusim.GPU, cfg Config) apps.Metrics {
	n, nz := int64(cfg.N), int64(cfg.layers())
	end := g.Transfer(0, 2*nz*n*n*4)
	for it := 0; it < cfg.iters(); it++ {
		end = g.Kernel(end, 13*float64(nz)*float64(n)*float64(n), 4*nz*n*n*4, gpusim.FP16)
	}
	g.Transfer(end, nz*n*n*4)
	return apps.Metrics{Elapsed: g.Elapsed(), Energy: g.Energy()}
}
