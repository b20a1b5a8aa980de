package pagerank

import (
	"math"
	"testing"
	"testing/quick"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/blas"
	"repro/internal/gpusim"
)

func TestGenerateDegreesConsistent(t *testing.T) {
	cfg := Config{N: 100, Degree: 5, Seed: 1}
	g := cfg.Generate()
	for c := 0; c < 100; c++ {
		var sum float64
		for r := 0; r < 100; r++ {
			v := g.Adj.At(r, c)
			if v != float32(int(v)) {
				t.Fatal("adjacency counts must be integers")
			}
			sum += float64(v)
		}
		if math.Abs(sum-float64(g.OutDeg[c])) > 1e-6 {
			t.Fatalf("column %d sums to %v, outdeg %v", c, sum, g.OutDeg[c])
		}
	}
}

func TestRanksSumToOne(t *testing.T) {
	cfg := Config{N: 200, Iters: 15, Seed: 2}
	g := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	rank, _ := RunCPU(cpu, 1, cfg, g)
	var sum float64
	for _, v := range rank {
		if v < 0 {
			t.Fatal("negative rank")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestTPURanksMatchCPU(t *testing.T) {
	cfg := Config{N: 300, Iters: 12, Seed: 3}
	g := cfg.Generate()
	cpu := blas.NewCPU(nil, 1)
	ref, _ := RunCPU(cpu, 1, cfg, g)
	ctx := gptpu.Open(gptpu.Config{})
	got, _, err := RunTPU(ctx, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	var se, rs float64
	for i := range ref {
		d := float64(got[i] - ref[i])
		se += d * d
		rs += float64(ref[i]) * float64(ref[i])
	}
	if rmse := math.Sqrt(se / rs); rmse > 0.02 {
		t.Fatalf("rank RMSE %v", rmse)
	}
}

func TestIterationReuseMakesLaterItersCheaper(t *testing.T) {
	// The adjacency buffer is reused across iterations: quantization
	// happens once and tiles stay resident, so 20 iterations must cost
	// far less than 20x the first.
	cfg := Config{N: 512, Iters: 1, Seed: 4}
	g := cfg.Generate()
	ctx1 := gptpu.Open(gptpu.Config{TimingOnly: true})
	_, one, err := RunTPU(ctx1, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iters = 20
	ctx20 := gptpu.Open(gptpu.Config{TimingOnly: true})
	_, twenty, err := RunTPU(ctx20, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if twenty.Elapsed.Seconds() > 12*one.Elapsed.Seconds() {
		t.Fatalf("20 iters (%.4fs) should amortize the first (%.4fs)",
			twenty.Elapsed.Seconds(), one.Elapsed.Seconds())
	}
}

func TestRunGPUCharges(t *testing.T) {
	g := gpusim.New(gpusim.RTX2080())
	m := RunGPU(g, Config{N: 1024, Iters: 10})
	if m.Elapsed <= 0 {
		t.Fatal("no GPU time charged")
	}
}

// Property: every rank respects the damping floor (1-d)/N and the
// vector stays normalized, for random graphs through the device path.
func TestQuickRankInvariants(t *testing.T) {
	f := func(seed int64, deg uint8) bool {
		cfg := Config{N: 128, Iters: 8, Degree: int(deg)%6 + 2, Seed: seed}
		g := cfg.Generate()
		ctx := gptpu.Open(gptpu.Config{})
		rank, _, err := RunTPU(ctx, cfg, g)
		if err != nil {
			return false
		}
		floor := (1 - damping) / float32(cfg.N) * 0.95
		var sum float64
		for _, v := range rank {
			if v < floor {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawGraphIsSkewed(t *testing.T) {
	cfg := Config{N: 400, Degree: 8, PowerLaw: true, Seed: 9}
	g := cfg.Generate()
	// In-degree distribution must have a heavy tail: the max in-degree
	// should far exceed the mean.
	inDeg := make([]float64, cfg.N)
	var max, sum float64
	for c := 0; c < cfg.N; c++ {
		for r := 0; r < cfg.N; r++ {
			inDeg[r] += float64(g.Adj.At(r, c))
		}
	}
	for _, d := range inDeg {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / float64(cfg.N)
	if max < 4*mean {
		t.Fatalf("power-law graph not skewed: max %v vs mean %v", max, mean)
	}
	// And the device path must still produce sane ranks on it.
	ctx := gptpu.Open(gptpu.Config{})
	cfg.Iters = 10
	rank, _, err := RunTPU(ctx, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range rank {
		total += float64(v)
	}
	if math.Abs(total-1) > 0.05 {
		t.Fatalf("power-law ranks sum to %v", total)
	}
}

// TestGraphMatchesSerial is the migration equivalence oracle: the
// single-Submit graph run (all iterations in one DAG) must reproduce
// the per-op serial loop bit-for-bit, at one worker and at eight.
func TestGraphMatchesSerial(t *testing.T) {
	cfg := Config{N: 128, Iters: 12, Degree: 6, PowerLaw: true, Seed: 7}
	g := cfg.Generate()
	serial, _, err := runTPUSerial(gptpu.Open(gptpu.Config{}), cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		graph, _, err := RunTPU(gptpu.Open(gptpu.Config{DispatchWorkers: workers}), cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(graph) != len(serial) {
			t.Fatalf("workers=%d: rank length %d vs %d", workers, len(graph), len(serial))
		}
		for i := range graph {
			if graph[i] != serial[i] {
				t.Fatalf("workers=%d rank[%d]: graph %v vs serial %v", workers, i, graph[i], serial[i])
			}
		}
	}
}

// TestGraphTimingOnly pins the shape-only path of the graph run.
func TestGraphTimingOnly(t *testing.T) {
	cfg := Config{N: 256, Iters: 5, Seed: 3}
	g := cfg.Generate()
	ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
	rank, m, err := RunTPU(ctx, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != cfg.N {
		t.Fatalf("rank length %d", len(rank))
	}
	if m.Elapsed <= 0 {
		t.Fatal("no virtual time charged")
	}
}

// runTPUSerial is the pre-graph per-op execution path (one enqueue and
// host round-trip per MatVec), the equivalence oracle for RunTPU.
func runTPUSerial(ctx *gptpu.Context, cfg Config, g *Graph) ([]float32, apps.Metrics, error) {
	bm := ctx.CreateMatrixBuffer(g.Adj)
	op := ctx.NewOp()
	rank := initialRank(cfg.N)
	x := make([]float32, cfg.N)
	for it := 0; it < cfg.iters(); it++ {
		if ctx.Functional() {
			x = normalize(rank, g.OutDeg)
		}
		ctx.ChargeHostWork(ctx.Params().AggTime(int64(cfg.N)))
		y := op.MatVec(bm, x)
		if op.Err() != nil {
			return nil, apps.Metrics{}, op.Err()
		}
		if ctx.Functional() {
			rank = damp(y, cfg.N)
		}
		ctx.ChargeHostWork(ctx.Params().AggTime(int64(cfg.N)))
	}
	return rank, apps.Metrics{Elapsed: ctx.Elapsed(), Energy: ctx.Energy()}, nil
}
