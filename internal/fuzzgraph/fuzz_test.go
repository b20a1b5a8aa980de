package fuzzgraph

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/timing"
)

// TestGenerateDeterministic: a case is a pure function of its seed,
// program listing included — the property replayable repros rest on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a, b := generate(seed), generate(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: two generations differ:\n%s\n--- vs ---\n%s", seed, a, b)
		}
		if len(a.Nodes) == 0 || len(a.Inputs) == 0 {
			t.Fatalf("seed %d: degenerate case: %s", seed, a)
		}
	}
}

// TestGenerateGolden pins the programs seeds 1–300 name, across
// commits: the corpus seeds and their comments ("seed 5 minimizes to
// mul -> max") mean something only while a seed replays the same
// program. A change to the generator that moves this digest must say
// so and re-check corpusSeeds.
func TestGenerateGolden(t *testing.T) {
	const want = "ca33e0dd75cf8192e4c91c4566b87934437c938dac7e02bfa1f5e8cede0e4f06"
	h := sha256.New()
	for seed := int64(1); seed <= 300; seed++ {
		h.Write([]byte(generate(seed).String()))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("seeds 1-300 generate other programs: listing digest %s, want %s", got, want)
	}
}

// TestTableOpsMatchNamedBuilders pins tableOps to the graph builders
// its node kinds stand for: a one-node case of every kind but host glue,
// built by buildGraph, must give the node core's named builder gives,
// bit for bit and at the same virtual makespan. All three oracle legs
// read tableOps, so a wrong entry would otherwise move coverage
// silently.
func TestTableOpsMatchNamedBuilders(t *testing.T) {
	named := map[OpKind]func(g *core.Graph, a, b core.Value) *core.Node{
		OpMatMul: (*core.Graph).MatMul,
		// The graph names no builder for the FullyConnected GEMM.
		OpMatMulFC:      func(g *core.Graph, a, b core.Value) *core.Node { return g.Apply(core.OpGemmFC, core.Params{}, a, b) },
		OpAdd:           (*core.Graph).Add,
		OpSub:           (*core.Graph).Sub,
		OpMul:           (*core.Graph).MulPair,
		OpTanh:          func(g *core.Graph, a, _ core.Value) *core.Node { return g.Tanh(a) },
		OpReLU:          func(g *core.Graph, a, _ core.Value) *core.Node { return g.ReLU(a) },
		OpConv2D:        (*core.Graph).Conv2D,
		OpConv2DStrided: func(g *core.Graph, a, k core.Value) *core.Node { return g.Conv2DStrided(a, k, 2, 3) },
		OpCrop:          func(g *core.Graph, a, _ core.Value) *core.Node { return g.Crop(a, 3, 5, 17, 11) },
		OpExt:           func(g *core.Graph, a, _ core.Value) *core.Node { return g.Ext(a, 50, 31) },
		OpMatVec:        (*core.Graph).MatVec,
		OpMean:          func(g *core.Graph, a, _ core.Value) *core.Node { return g.Mean(a) },
		OpMax:           func(g *core.Graph, a, _ core.Value) *core.Node { return g.MaxReduce(a) },
	}
	params := map[OpKind]core.Params{
		OpConv2DStrided: {StrideR: 2, StrideC: 3},
		OpCrop:          {R0: 3, C0: 5, Rows: 17, Cols: 11},
		OpExt:           {Rows: 50, Cols: 31},
	}
	second := map[OpKind][2]int{ // the second operand's shape; none for a unary kind
		OpMatMul: {24, 16}, OpMatMulFC: {24, 16},
		OpAdd: {40, 24}, OpSub: {40, 24}, OpMul: {40, 24},
		OpConv2D: {3, 3}, OpConv2DStrided: {3, 2}, OpMatVec: {1, 24},
	}
	for kind := range opNames {
		if kind == OpHost {
			continue
		}
		builder, ok := named[kind]
		if !ok {
			t.Errorf("%s: no named graph builder", kind)
			continue
		}
		cs := &Case{Inputs: []InputSpec{{Rows: 40, Cols: 24, Dist: "uniform", Lo: -2, Hi: 2, Seed: 1}},
			Nodes: []NodeSpec{{Op: kind, Args: []int{-1}, Params: params[kind]}}}
		if sh, ok := second[kind]; ok {
			cs.Inputs = append(cs.Inputs, InputSpec{Rows: sh[0], Cols: sh[1], Dist: "uniform", Lo: -1, Hi: 1, Seed: 2})
			cs.Nodes[0].Args = append(cs.Nodes[0].Args, -2)
		}
		ins := cs.materialize()
		outcome := func(build func(ctx *core.Context, leaves []*core.Buffer) (*core.Graph, *core.Node)) (string, timing.Duration) {
			ctx := core.NewContext(core.Config{Devices: 2})
			defer ctx.Close()
			leaves := make([]*core.Buffer, len(ins))
			for i, m := range ins {
				leaves[i] = ctx.CreateMatrixBuffer(m)
			}
			g, n := build(ctx, leaves)
			if err := g.Submit(); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			m, err := n.Result()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			return fmt.Sprintf("%dx%d %x", m.Rows, m.Cols, matrixBits(m)), ctx.Elapsed()
		}
		got, gotEnd := outcome(func(ctx *core.Context, _ []*core.Buffer) (*core.Graph, *core.Node) {
			g, nodes := buildGraph(ctx, cs, ins, true)
			return g, nodes[0]
		})
		want, wantEnd := outcome(func(ctx *core.Context, leaves []*core.Buffer) (*core.Graph, *core.Node) {
			g := ctx.NewGraph()
			var b core.Value
			if len(leaves) > 1 {
				b = leaves[1]
			}
			return g, builder(g, leaves[0], b).Fetch()
		})
		if got != want || gotEnd != wantEnd {
			t.Errorf("%s: buildGraph's node differs from the named builder's (makespan %v vs %v)", kind, gotEnd, wantEnd)
		}
	}
}

// TestGenerateCoverage: across a modest seed range the generator must
// exercise every op kind, strided views, segmented chains, fetched and
// on-chip nodes — otherwise the oracle is quietly blind to part of the
// instruction set.
func TestGenerateCoverage(t *testing.T) {
	ops := map[OpKind]int{}
	var views, segs, fetches int
	for seed := int64(1); seed <= 300; seed++ {
		cs := generate(seed)
		for i := range cs.Nodes {
			ops[cs.Nodes[i].Op]++
			if cs.Nodes[i].Fetch {
				fetches++
			}
		}
		for i := range cs.Inputs {
			if cs.Inputs[i].ParentRows > 0 {
				views++
			}
		}
		if cs.SegLen > 0 {
			segs++
		}
	}
	for k := range opNames {
		if ops[k] == 0 {
			t.Errorf("op %s never generated in 300 seeds", k)
		}
	}
	if views == 0 || segs == 0 || fetches == 0 {
		t.Errorf("coverage holes: views=%d segs=%d fetches=%d", views, segs, fetches)
	}
}

// TestFuzzShort is the deterministic CI slice of the differential
// fuzzer: a handful of seeds through the complete oracle, wire leg
// included.
func TestFuzzShort(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()
	n := 12
	if testing.Short() {
		n = 4
	}
	for _, f := range Run(1, n, h, nil) {
		t.Errorf("seed %d: %v\nminimized:\n%s", f.Seed, f.Err, f.Minimized)
	}
}

// TestCorpusReplay re-checks every committed repro seed — one per bug
// the fuzzer has caught — so none of those divergences can return.
func TestCorpusReplay(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()
	for _, seed := range corpusSeeds {
		if f := checkSeed(seed, h); f != nil {
			t.Errorf("corpus seed %d regressed: %v\nminimized:\n%s", seed, f.Err, f.Minimized)
		}
	}
}

// TestMinimize drives the minimizer with a synthetic predicate ("the
// case still contains a Tanh") and checks it converges to a minimal
// slice of the DAG with consistent arg references.
func TestMinimize(t *testing.T) {
	var cs *Case
	var seed int64
	for seed = 1; ; seed++ {
		cs = generate(seed)
		n := 0
		for i := range cs.Nodes {
			if cs.Nodes[i].Op == OpTanh {
				n++
			}
		}
		if n >= 1 && len(cs.Nodes) >= 5 {
			break
		}
		if seed > 500 {
			t.Fatal("no seed with a tanh in a 5+ node case")
		}
	}
	hasTanh := func(c *Case) bool {
		for i := range c.Nodes {
			if c.Nodes[i].Op == OpTanh {
				return true
			}
		}
		return false
	}
	min := minimize(cs, hasTanh)
	if !hasTanh(min) {
		t.Fatalf("minimized case lost the failing property:\n%s", min)
	}
	if len(min.Nodes) >= len(cs.Nodes) {
		t.Errorf("no shrinkage: %d -> %d nodes", len(cs.Nodes), len(min.Nodes))
	}
	// Every surviving arg reference must be in range; the case must
	// still execute cleanly end to end.
	for i := range min.Nodes {
		for _, a := range min.Nodes[i].Args {
			if a >= i || -a-1 >= len(min.Inputs) {
				t.Fatalf("dangling arg %d at n%d:\n%s", a, i, min)
			}
		}
	}
	if err := check(min, nil); err != nil {
		t.Fatalf("minimized case no longer runs clean: %v", err)
	}
	if !strings.Contains(min.String(), "tanh") {
		t.Errorf("listing does not mention tanh:\n%s", min)
	}
}

// corpusSeeds replays one committed seed per divergence the fuzzer
// has caught and we have fixed. TestCorpusReplay runs every entry on
// each CI pass, so a fixed bug that comes back fails immediately with
// a minimized repro.
var corpusSeeds = []int64{
	// Reduce nodes (core/graph.go) published a real 1x1 zero matrix in
	// timing-only mode instead of a shape descriptor.
	// Caught by the timing-only leg ("n6 published real data (1x1)");
	// seed 5 minimizes to mul -> max, seed 14 has the reduce at n0.
	5, 10, 14,
}
