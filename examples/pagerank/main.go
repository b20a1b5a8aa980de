// PageRank on GPTPU: the section 7.2.1 power method, submitted as one
// dataflow graph covering every iteration — each iteration chains a
// host normalize node, a FullyConnected-based MatVec device node, and
// a host damping node. The adjacency buffer is created once and shared
// by every MatVec node, so the runtime's locality-aware scheduler
// keeps its tiles resident on the Edge TPUs across iterations.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log/slog"
	"os"
	"sort"

	gptpu "repro"
	"repro/internal/apps/pagerank"
	"repro/internal/blas"
	"repro/internal/tensor"
)

func main() {
	cfg := pagerank.Config{N: 2048, Iters: 15, Degree: 8, Seed: 7}
	graph := cfg.Generate()

	// GPTPU run on 4 Edge TPUs: build the whole power method as one
	// graph, then submit it in a single call.
	ctx := gptpu.Open(gptpu.Config{Devices: 4})
	bm := ctx.CreateMatrixBuffer(graph.Adj)
	hostCost := ctx.Params().AggTime(int64(cfg.N))

	init := make([]float32, cfg.N)
	for i := range init {
		init[i] = 1 / float32(cfg.N)
	}
	g := ctx.NewGraph()
	var cur gptpu.GraphValue = ctx.CreateMatrixBuffer(tensor.FromSlice(1, cfg.N, init))
	var iterEnds []*gptpu.GraphNode
	for it := 0; it < cfg.Iters; it++ {
		norm := g.HostOp("normalize", 1, cfg.N, hostCost,
			func(in []*tensor.Matrix) *tensor.Matrix {
				x := make([]float32, cfg.N)
				for i, v := range in[0].Data {
					if graph.OutDeg[i] > 0 {
						x[i] = v / graph.OutDeg[i]
					}
				}
				return tensor.FromSlice(1, cfg.N, x)
			}, cur)
		y := g.MatVec(bm, norm)
		next := g.HostOp("damp", 1, cfg.N, hostCost,
			func(in []*tensor.Matrix) *tensor.Matrix {
				r := make([]float32, cfg.N)
				for i, v := range in[0].Data {
					r[i] = 0.85*v + 0.15/float32(cfg.N)
				}
				return tensor.FromSlice(1, cfg.N, r)
			}, y)
		iterEnds = append(iterEnds, next)
		cur = next
	}
	if err := g.Submit(); err != nil {
		slog.Error("graph submit failed", "err", err)
		os.Exit(1)
	}
	final, err := iterEnds[len(iterEnds)-1].Result()
	if err != nil {
		slog.Error("rank unavailable", "err", err)
		os.Exit(1)
	}
	rank := final.Data

	fmt.Printf("PageRank %d nodes, %d iterations on 4 Edge TPUs — one graph Submit\n", cfg.N, cfg.Iters)
	fmt.Printf("  iteration 1 ends: %v (quantize + ship the adjacency tiles)\n", iterEnds[0].End())
	fmt.Printf("  iteration 2 ends: %v (tiles resident: locality rule, section 6.1)\n", iterEnds[1].End())
	fmt.Printf("  total: %v\n", ctx.Elapsed())

	// Cross-check against the CPU baseline.
	cpu := blas.NewCPU(nil, 1)
	ref, _ := pagerank.RunCPU(cpu, 1, cfg, graph)
	type node struct {
		id int
		r  float32
	}
	top := make([]node, cfg.N)
	for i, v := range rank {
		top[i] = node{i, v}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("  top-5 ranked nodes (GPTPU vs CPU):")
	for _, nd := range top[:5] {
		fmt.Printf("    node %5d  %.6f  (cpu %.6f)\n", nd.id, nd.r, ref[nd.id])
	}
}
