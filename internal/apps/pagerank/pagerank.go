// Package pagerank is the graph workload of the evaluation (Table 3:
// 1 x 32K x 32K adjacency matrix, baseline GraphBLAST [80]). Both
// implementations use "the classic power method that iteratively
// performs matrix-vector multiplications"; the GPTPU implementation
// maps each product to FullyConnected instructions (section 7.2.1),
// re-using the adjacency buffer so the runtime's locality rule keeps
// its tiles resident across iterations.
//
// Algorithm revision in the spirit of section 7: the matrix kept on
// the device is the raw (integer) adjacency-count matrix, which
// quantizes losslessly to int8; the 1/out-degree normalization folds
// into the host-side vector update. This keeps the per-iteration
// quantization error down to the rank vector alone.
package pagerank

import (
	"math/rand"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// damping is the classic PageRank damping factor.
const damping = 0.85

// Config describes one run: N nodes, Iters power iterations, average
// out-degree Degree for the random graph. PowerLaw switches the
// generator from uniform targets to preferential attachment, giving
// the skewed in-degree distribution of real web graphs (hub nodes
// stress the rank vector's dynamic range and with it the
// quantization).
type Config struct {
	N        int
	Iters    int
	Degree   int
	PowerLaw bool
	Seed     int64
}

func (c Config) iters() int {
	if c.Iters <= 0 {
		return 20
	}
	return c.Iters
}

// Graph is the generated workload: the adjacency-count matrix
// (A[to][from] = multiplicity of edge from->to; small integers, int8
// exact) and the out-degree of every node.
type Graph struct {
	Adj    *tensor.Matrix
	OutDeg []float32
}

// Generate builds a random multigraph with the configured average
// out-degree.
func (c Config) Generate() *Graph {
	rng := rand.New(rand.NewSource(c.Seed + 2))
	deg := c.Degree
	if deg <= 0 {
		deg = 8
	}
	adj := tensor.New(c.N, c.N)
	out := make([]float32, c.N)
	// For preferential attachment, track every edge endpoint so far;
	// sampling from it is proportional to current in-degree.
	var endpoints []int
	for from := 0; from < c.N; from++ {
		for d := 0; d < deg; d++ {
			var to int
			if c.PowerLaw && len(endpoints) > 0 && rng.Intn(2) == 0 {
				to = endpoints[rng.Intn(len(endpoints))]
			} else {
				to = rng.Intn(c.N)
			}
			adj.Set(to, from, adj.At(to, from)+1)
			out[from]++
			if c.PowerLaw {
				endpoints = append(endpoints, to)
			}
		}
	}
	return &Graph{Adj: adj, OutDeg: out}
}

// normalize divides the rank vector by out-degrees (the host-side
// half of the revised product A * (r / outdeg)).
func normalize(rank, outDeg []float32) []float32 {
	out := make([]float32, len(rank))
	for i, v := range rank {
		if outDeg[i] > 0 {
			out[i] = v / outDeg[i]
		}
	}
	return out
}

// damp applies r' = d*y + (1-d)/N.
func damp(y []float32, n int) []float32 {
	out := make([]float32, len(y))
	base := (1 - float32(damping)) / float32(n)
	for i, v := range y {
		out[i] = damping*v + base
	}
	return out
}

func initialRank(n int) []float32 {
	r := make([]float32, n)
	for i := range r {
		r[i] = 1 / float32(n)
	}
	return r
}

// RunCPU executes the GraphBLAST-style baseline: power iterations on
// threads cores; the dense product is memory-bound. g may be nil for
// timing-only runs.
func RunCPU(cpu *blas.CPU, threads int, cfg Config, g *Graph) ([]float32, apps.Metrics) {
	n := int64(cfg.N)
	var rank []float32
	if g != nil {
		rank = initialRank(cfg.N)
	}
	now := cpu.Elapsed()
	for it := 0; it < cfg.iters(); it++ {
		if g != nil {
			rank = damp(blas.MatVec(g.Adj, normalize(rank, g.OutDeg)), cfg.N)
		}
		// One edge-centric pass over the N x N adjacency per iteration.
		now = cpu.ChargeGraph(now, n*n, n*n*4, threads)
	}
	return rank, apps.Metrics{Elapsed: cpu.Elapsed(), Energy: cpu.Energy()}
}

// RunTPU executes the GPTPU implementation as one dataflow-graph
// submission covering every power iteration: per iteration a
// normalize HostOp feeds a MatVec device node feeds a damp HostOp,
// chained on the shared adjacency buffer. The whole run enters the
// engine through a single Submit; rank results are bit-identical to
// the per-op runTPUSerial path.
func RunTPU(ctx *gptpu.Context, cfg Config, g *Graph) ([]float32, apps.Metrics, error) {
	bm := ctx.CreateMatrixBuffer(g.Adj)
	hostCost := ctx.Params().AggTime(int64(cfg.N))

	gr := ctx.NewGraph()
	var cur gptpu.GraphValue = ctx.CreateMatrixBuffer(tensor.FromSlice(1, cfg.N, initialRank(cfg.N)))
	var last *gptpu.GraphNode
	for it := 0; it < cfg.iters(); it++ {
		norm := gr.HostOp("normalize", 1, cfg.N, hostCost,
			func(in []*tensor.Matrix) *tensor.Matrix {
				return tensor.FromSlice(1, cfg.N, normalize(in[0].Data, g.OutDeg))
			}, cur)
		y := gr.MatVec(bm, norm)
		last = gr.HostOp("damp", 1, cfg.N, hostCost,
			func(in []*tensor.Matrix) *tensor.Matrix {
				return tensor.FromSlice(1, cfg.N, damp(in[0].Data, cfg.N))
			}, y)
		cur = last
	}
	if err := gr.Submit(); err != nil {
		return nil, apps.Metrics{}, err
	}
	rank := initialRank(cfg.N)
	if ctx.Functional() {
		m, err := last.Result()
		if err != nil {
			return nil, apps.Metrics{}, err
		}
		rank = m.Data
	}
	return rank, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}

// RunGPU charges the GPU implementation: the matrix transfers once,
// then each iteration is one bandwidth-bound SpMV-style kernel.
func RunGPU(g *gpusim.GPU, cfg Config) apps.Metrics {
	n := int64(cfg.N)
	end := g.Transfer(0, n*n*4)
	for it := 0; it < cfg.iters(); it++ {
		end = g.Kernel(end, 2*float64(n)*float64(n), n*n*4, gpusim.FP32)
	}
	g.Transfer(end, n*4)
	return apps.Metrics{Elapsed: g.Elapsed(), Energy: g.Energy()}
}
