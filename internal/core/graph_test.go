package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// graphChainInputs builds the fixed input set every graph test chains
// over: three n×n matrices with a shared seed.
func graphChainInputs(n int) (a, b, c *tensor.Matrix) {
	rng := rand.New(rand.NewSource(1234))
	a = tensor.RandUniform(rng, n, n, -2, 2)
	b = tensor.RandUniform(rng, n, n, -2, 2)
	c = tensor.RandUniform(rng, n, n, -2, 2)
	return
}

// serialChain runs Gemm→Add→Tanh per-op: every intermediate
// round-trips host memory through a fresh buffer, exactly what the
// graph path must match bit-for-bit.
func serialChain(ctx *Context, a, b, c *tensor.Matrix) (*tensor.Matrix, error) {
	s := ctx.NewOp()
	ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)
	m1 := s.Gemm(ba, bb)
	if s.Err() != nil {
		return nil, s.Err()
	}
	m2 := s.Add(ctx.CreateMatrixBuffer(m1), bc)
	if s.Err() != nil {
		return nil, s.Err()
	}
	out := s.Tanh(ctx.CreateMatrixBuffer(m2))
	return out, s.Err()
}

// graphChain runs the same three ops as one graph submission.
func graphChain(ctx *Context, a, b, c *tensor.Matrix) (*tensor.Matrix, *Graph, error) {
	g := ctx.NewGraph()
	ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)
	leaf := g.MatMul(ba, bb).Add(bc).Tanh()
	if err := g.Submit(); err != nil {
		return nil, g, err
	}
	out, err := leaf.Result()
	return out, g, err
}

func bitIdentical(t *testing.T, want, got *tensor.Matrix, what string) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for r := 0; r < want.Rows; r++ {
		for c := 0; c < want.Cols; c++ {
			w, g := want.At(r, c), got.At(r, c)
			if math.Float32bits(w) != math.Float32bits(g) {
				t.Fatalf("%s: [%d,%d] %v != %v (not bit-identical)", what, r, c, w, g)
			}
		}
	}
}

// TestGraphChainBitExactAndZeroIntermediateDownloads is the PR's
// acceptance criterion: a ≥3-op chain submitted as a graph matches
// per-op serial results bit-exactly while performing zero intermediate
// host materializations — asserted through the device download
// counters, which must account only the leaf's result bytes.
func TestGraphChainBitExactAndZeroIntermediateDownloads(t *testing.T) {
	const n = 96
	a, b, c := graphChainInputs(n)

	ctxS := NewContext(Config{})
	defer ctxS.Close()
	want, err := serialChain(ctxS, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	var serialDown int64
	for _, d := range ctxS.Stats().PerDevice {
		serialDown += d.DownloadBytes
	}

	ctxG := NewContext(Config{})
	defer ctxG.Close()
	got, g, err := graphChain(ctxG, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, want, got, "graph vs per-op chain")

	var graphDown int64
	for _, d := range ctxG.Stats().PerDevice {
		graphDown += d.DownloadBytes
	}
	// The leaf (n×n int8 tiles) must download; the two intermediates
	// must not. Per-op downloads the Gemm partials and the add tiles
	// on top, so the graph total is exactly the leaf's bytes.
	leafBytes := int64(n * n)
	if graphDown != leafBytes {
		t.Fatalf("graph downloaded %d bytes, want exactly the leaf's %d (intermediates must stay on-chip)",
			graphDown, leafBytes)
	}
	if graphDown >= serialDown {
		t.Fatalf("graph download %d not below per-op %d", graphDown, serialDown)
	}
	st := ctxG.Stats()
	if st.GraphSubmits != 1 || st.GraphChipIntermediates != 2 {
		t.Fatalf("graph stats: submits=%d chip=%d, want 1 and 2", st.GraphSubmits, st.GraphChipIntermediates)
	}
	// On-chip intermediates are invisible to Result by design.
	if _, err := g.nodes[1].Result(); !errors.Is(err, ErrOnChip) {
		t.Fatalf("intermediate Result err = %v, want ErrOnChip", err)
	}
}

// TestGraphNodeMethodsMatchStream chains each Node method onto an
// on-chip intermediate (A + B) and requires the graph's result to
// match, bit for bit and shape for shape (Node.Rows, Node.Cols), the
// Stream operator run on the per-op intermediate.
func TestGraphNodeMethodsMatchStream(t *testing.T) {
	const n = 40
	a, b, c := graphChainInputs(n)
	k := tensor.RandUniform(rand.New(rand.NewSource(7)), 3, 3, -1, 1)
	scalar := func(v float32) *tensor.Matrix { return tensor.FromSlice(1, 1, []float32{v}) }
	for _, tc := range []struct {
		name   string
		graph  func(x *Node, c, k *Buffer) *Node
		stream func(s *Stream, x, c, k *Buffer) *tensor.Matrix
	}{
		{"MatMul", func(x *Node, c, _ *Buffer) *Node { return x.MatMul(c) },
			func(s *Stream, x, c, _ *Buffer) *tensor.Matrix { return s.Gemm(x, c) }},
		{"Sub", func(x *Node, c, _ *Buffer) *Node { return x.Sub(c) },
			func(s *Stream, x, c, _ *Buffer) *tensor.Matrix { return s.Sub(x, c) }},
		{"Conv2D", func(x *Node, _, k *Buffer) *Node { return x.Conv2D(k) },
			func(s *Stream, x, _, k *Buffer) *tensor.Matrix { return s.Conv2D(x, k) }},
		{"Crop", func(x *Node, _, _ *Buffer) *Node { return x.Crop(3, 5, 17, 11) },
			func(s *Stream, x, _, _ *Buffer) *tensor.Matrix { return s.Crop(x, 3, 5, 17, 11) }},
		{"Ext", func(x *Node, _, _ *Buffer) *Node { return x.Ext(n+6, n+9) },
			func(s *Stream, x, _, _ *Buffer) *tensor.Matrix { return s.Ext(x, n+6, n+9) }},
		{"Mean", func(x *Node, _, _ *Buffer) *Node { return x.Mean() },
			func(s *Stream, x, _, _ *Buffer) *tensor.Matrix { return scalar(s.Mean(x)) }},
		{"MaxReduce", func(x *Node, _, _ *Buffer) *Node { return x.MaxReduce() },
			func(s *Stream, x, _, _ *Buffer) *tensor.Matrix { return scalar(s.Max(x)) }},
	} {
		ctxS := NewContext(Config{})
		s := ctxS.NewOp()
		x := s.Add(ctxS.CreateMatrixBuffer(a), ctxS.CreateMatrixBuffer(b))
		want := tc.stream(s, ctxS.CreateMatrixBuffer(x), ctxS.CreateMatrixBuffer(c), ctxS.CreateMatrixBuffer(k))
		if err := s.Err(); err != nil {
			t.Fatalf("%s: stream: %v", tc.name, err)
		}
		ctxS.Close()

		ctxG := NewContext(Config{})
		g := ctxG.NewGraph()
		leaf := tc.graph(g.Add(ctxG.CreateMatrixBuffer(a), ctxG.CreateMatrixBuffer(b)),
			ctxG.CreateMatrixBuffer(c), ctxG.CreateMatrixBuffer(k))
		if err := g.Submit(); err != nil {
			t.Fatalf("%s: graph: %v", tc.name, err)
		}
		if leaf.Rows() != want.Rows || leaf.Cols() != want.Cols {
			t.Fatalf("%s: node shape %dx%d, stream %dx%d", tc.name, leaf.Rows(), leaf.Cols(), want.Rows, want.Cols)
		}
		got, err := leaf.Result()
		if v, serr := leaf.Scalar(); serr == nil {
			got, err = scalar(v), nil
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bitIdentical(t, want, got, "graph "+tc.name+" vs Stream")
		ctxG.Close()
	}
}

// graphDeterminismRun executes a DAG with independent branches and a
// shared join at a given worker count, optionally under a fault plan,
// returning makespan, results and stats.
func graphDeterminismRun(t *testing.T, workers int, fc *fault.Config) (float64, *tensor.Matrix, *tensor.Matrix, Stats) {
	t.Helper()
	ctx := NewContext(Config{Devices: 4, DispatchWorkers: workers, Fault: fc})
	defer ctx.Close()

	a, b, c := graphChainInputs(128)
	g := ctx.NewGraph()
	ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)
	// Two independent chains (should overlap in virtual time on
	// distinct devices) joined by a pairwise op, plus a reduce leaf.
	left := g.MatMul(ba, bb).ReLU()
	right := g.Add(bb, bc).Tanh()
	join := left.MulPair(right).Fetch()
	mean := g.Mean(join)
	// The left chain's on-chip shadow is released once join has run:
	// copy it when its own node span ends (functional check only).
	tap := &nodeTap{g: g}
	if err := g.SubmitObserved(tap); err != nil {
		t.Fatal(err)
	}
	if _, err := mean.Scalar(); err != nil {
		t.Fatal(err)
	}
	jm, err := join.Result()
	if err != nil {
		t.Fatal(err)
	}
	lm := tap.copies[left.id]
	if lm == nil || !left.OnChip() {
		t.Fatal("left chain: no on-chip shadow to compare")
	}
	return ctx.Elapsed().Seconds(), jm, lm, ctx.Stats()
}

// nodeTap is a TaskObserver that keeps each node's output, and a copy
// of it, as the node's span ends: before Submit can release it.
type nodeTap struct {
	g            *Graph
	outs, copies []*tensor.Matrix // by node id
}

func (p *nodeTap) ObserveSpan(stage string, _ time.Time, _ time.Duration, _ string) {
	if stage != obs.StageNode { // the other stages come from engine workers
		return
	}
	out := p.g.nodes[len(p.outs)].out
	p.outs = append(p.outs, out)
	if out != nil {
		out = out.Clone()
	}
	p.copies = append(p.copies, out)
}
func (p *nodeTap) ObserveEvent(string, string, bool) {}

// TestGraphDeterminismAcrossWorkers: same DAG at workers=1 vs 8 →
// bit-identical results and virtual makespans.
func TestGraphDeterminismAcrossWorkers(t *testing.T) {
	mk1, j1, l1, st1 := graphDeterminismRun(t, 1, nil)
	mk8, j8, l8, st8 := graphDeterminismRun(t, 8, nil)
	if mk1 <= 0 {
		t.Fatal("graph charged no virtual time")
	}
	if mk1 != mk8 {
		t.Fatalf("virtual makespan diverged: 1 worker %.12fs vs 8 workers %.12fs", mk1, mk8)
	}
	bitIdentical(t, j1, j8, "join result across workers")
	bitIdentical(t, l1, l8, "on-chip shadow across workers")
	if st1.GraphChipIntermediates != st8.GraphChipIntermediates {
		t.Fatalf("chip intermediates diverged: %d vs %d", st1.GraphChipIntermediates, st8.GraphChipIntermediates)
	}
}

// TestGraphDeterminismUnderFaults repeats the worker sweep under a
// PR 4 fault plan (transients + a timed device kill/revive): the
// injector is consumed from the serialized charge order, so makespans
// and results stay bit-identical.
func TestGraphDeterminismUnderFaults(t *testing.T) {
	fc := &fault.Config{
		Seed:          11,
		TransientProb: 0.12,
		Kill:          []fault.Event{{Device: 2, At: 100 * time.Microsecond}},
		Revive:        []fault.Event{{Device: 2, At: 3 * time.Millisecond}},
	}
	mk1, j1, _, st1 := graphDeterminismRun(t, 1, fc)
	mk8, j8, _, st8 := graphDeterminismRun(t, 8, fc)
	if st1.TransientRetries == 0 {
		t.Fatal("fault plan injected nothing — test exercises nothing")
	}
	if mk1 != mk8 {
		t.Fatalf("makespan diverged under faults: %.12fs vs %.12fs", mk1, mk8)
	}
	if st1.TransientRetries != st8.TransientRetries || st1.DeviceLostRetries != st8.DeviceLostRetries {
		t.Fatalf("retry counts diverged: transient %d/%d lost %d/%d",
			st1.TransientRetries, st8.TransientRetries, st1.DeviceLostRetries, st8.DeviceLostRetries)
	}
	bitIdentical(t, j1, j8, "join result under faults")
}

// TestGraphUpstreamPoisoning: a failed node must poison its downstream
// nodes with ErrUpstream while leaving independent branches healthy,
// and Submit must return the root cause.
func TestGraphUpstreamPoisoning(t *testing.T) {
	ctx := NewContext(Config{})
	defer ctx.Close()
	a, b, _ := graphChainInputs(64)
	bad := tensor.New(64, 64)
	bad.Set(3, 3, float32(math.NaN()))

	g := ctx.NewGraph()
	ba, bb, bbad := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(bad)
	poisoned := g.MatMul(bbad, bb) // fails: non-finite input
	down := poisoned.Add(ba)       // must never execute
	deeper := down.Tanh()
	healthy := g.MatMul(ba, bb).Fetch() // independent branch

	err := g.Submit()
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("Submit err = %v, want root ErrBadInput", err)
	}
	if !errors.Is(poisoned.Err(), ErrBadInput) {
		t.Fatalf("root node err = %v, want ErrBadInput", poisoned.Err())
	}
	for _, n := range []*Node{down, deeper} {
		if !errors.Is(n.Err(), ErrUpstream) {
			t.Fatalf("downstream node %s#%d err = %v, want ErrUpstream", n.op, n.id, n.Err())
		}
		// The root cause stays reachable through the wrap chain.
		if !errors.Is(n.Err(), ErrBadInput) {
			t.Fatalf("downstream err %v does not wrap the root cause", n.Err())
		}
	}
	if healthy.Err() != nil {
		t.Fatalf("independent branch poisoned: %v", healthy.Err())
	}
	if _, err := healthy.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamErrSticky pins the documented Stream.Err contract the
// graph's poisoning builds on: the first failure sticks, later ops
// no-op, and Err keeps returning the root cause.
func TestStreamErrSticky(t *testing.T) {
	ctx := NewContext(Config{})
	defer ctx.Close()
	bad := tensor.New(8, 8)
	bad.Set(0, 0, float32(math.Inf(1)))
	goodM := tensor.New(8, 8)
	for i := range goodM.Data {
		goodM.Data[i] = float32(i%7) - 3
	}
	s := ctx.NewOp()
	bg, bb := ctx.CreateMatrixBuffer(goodM), ctx.CreateMatrixBuffer(bad)
	if out := s.Add(bg, bb); out != nil {
		t.Fatal("failed op must return nil")
	}
	first := s.Err()
	if !errors.Is(first, ErrBadInput) {
		t.Fatalf("Err = %v, want ErrBadInput", first)
	}
	// Subsequent operations are no-ops and do not replace the error.
	if out := s.Gemm(bg, bg); out != nil {
		t.Fatal("op on failed stream must be a no-op")
	}
	if s.Err() != first {
		t.Fatalf("sticky error replaced: %v -> %v", first, s.Err())
	}
}

// spanRecorder is a minimal TaskObserver capturing stage names.
type spanRecorder struct {
	mu    sync.Mutex
	spans []string
	attrs []string
}

func (r *spanRecorder) ObserveSpan(stage string, _ time.Time, _ time.Duration, attr string) {
	r.mu.Lock()
	r.spans = append(r.spans, stage)
	r.attrs = append(r.attrs, attr)
	r.mu.Unlock()
}
func (r *spanRecorder) ObserveEvent(string, string, bool) {}

// TestGraphSubmitObservedNodeSpans: SubmitObserved emits one "node"
// span per node (labelled op#id) alongside the per-instruction
// queue_wait/charge/exec spans.
func TestGraphSubmitObservedNodeSpans(t *testing.T) {
	ctx := NewContext(Config{})
	defer ctx.Close()
	a, b, c := graphChainInputs(64)
	g := ctx.NewGraph()
	ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)
	g.MatMul(ba, bb).Add(bc).Tanh()
	rec := &spanRecorder{}
	if err := g.SubmitObserved(rec); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range rec.spans {
		counts[s]++
	}
	if counts["node"] != 3 {
		t.Fatalf("node spans = %d, want one per node (3); stages seen: %v", counts["node"], counts)
	}
	for _, st := range []string{"queue_wait", "charge", "exec"} {
		if counts[st] == 0 {
			t.Fatalf("no %q spans recorded through the graph path", st)
		}
	}
	var nodeAttrs []string
	for i, s := range rec.spans {
		if s == "node" {
			nodeAttrs = append(nodeAttrs, rec.attrs[i])
		}
	}
	want := []string{"tpuGemm#0", "add#1", "tanh#2"}
	for i, w := range want {
		if nodeAttrs[i] != w {
			t.Fatalf("node span attrs %v, want %v", nodeAttrs, want)
		}
	}
}

// TestGraphSegmentation: cutting a chain into segments moves
// intermediates device→host→device at the boundary — makespan can
// only grow vs the unsegmented chain, downloads become non-zero, and
// results stay bit-identical.
func TestGraphSegmentation(t *testing.T) {
	run := func(segLen int) (float64, *tensor.Matrix, int64) {
		ctx := NewContext(Config{Devices: 4})
		defer ctx.Close()
		a, b, c := graphChainInputs(96)
		g := ctx.NewGraph().SegmentChains(segLen)
		ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)
		leaf := g.MatMul(ba, bb).Add(bc).MulPair(bc).Tanh()
		if err := g.Submit(); err != nil {
			t.Fatal(err)
		}
		out, err := leaf.Result()
		if err != nil {
			t.Fatal(err)
		}
		var down int64
		for _, d := range ctx.Stats().PerDevice {
			down += d.DownloadBytes
		}
		return ctx.Elapsed().Seconds(), out, down
	}
	mkWhole, outWhole, downWhole := run(0)
	mkCut, outCut, downCut := run(2)
	bitIdentical(t, outWhole, outCut, "segmented vs whole chain")
	if downCut <= downWhole {
		t.Fatalf("segment boundary charged no transfer: cut %d <= whole %d bytes", downCut, downWhole)
	}
	if mkCut < mkWhole {
		t.Fatalf("segmentation shrank a serial chain's makespan: %.9f < %.9f", mkCut, mkWhole)
	}
}

// TestGraphSurvivesHomeDeviceKill: killing a chain's home device
// mid-graph rebinds the cell; intermediates re-ship from their host
// shadows and the functional result still matches per-op execution.
func TestGraphSurvivesHomeDeviceKill(t *testing.T) {
	a, b, c := graphChainInputs(96)
	ctxS := NewContext(Config{})
	defer ctxS.Close()
	want, err := serialChain(ctxS, a, b, c)
	if err != nil {
		t.Fatal(err)
	}

	o := Config{Devices: 2}
	// Device 0 dies almost immediately: whichever chain homes there
	// must rebind and re-upload.
	o.Fault = &fault.Config{Seed: 1, Kill: []fault.Event{{Device: 0, At: 50 * time.Microsecond}}}
	ctx := NewContext(o)
	defer ctx.Close()
	got, _, err := graphChain(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, want, got, "graph after home kill vs per-op")
}

// TestGraphHostOpAndMatVec exercises the host-node path: a HostOp
// normalization feeding MatVec (the PageRank shape) must force its
// producer to materialize and produce the same numbers as hand-run
// host code.
func TestGraphHostOpAndMatVec(t *testing.T) {
	ctx := NewContext(Config{})
	defer ctx.Close()
	const n = 64
	rng := rand.New(rand.NewSource(77))
	adj := tensor.RandUniform(rng, n, n, 0, 1)
	vec := tensor.RandUniform(rng, 1, n, 0, 1)

	g := ctx.NewGraph()
	badj := ctx.CreateMatrixBuffer(adj)
	scaled := g.HostOp("halve", 1, n, ctx.Params().AggTime(n),
		func(in []*tensor.Matrix) *tensor.Matrix {
			out := tensor.New(1, n)
			for i := range out.Data {
				out.Data[i] = in[0].Data[i] / 2
			}
			return out
		}, ctx.CreateMatrixBuffer(vec))
	mv := g.MatVec(badj, scaled)
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}
	got, err := mv.Vector()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: same ops per-op.
	ctx2 := NewContext(Config{})
	defer ctx2.Close()
	half := make([]float32, n)
	for i := range half {
		half[i] = vec.Data[i] / 2
	}
	s := ctx2.NewOp()
	want := s.MatVec(ctx2.CreateMatrixBuffer(adj), half)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("matvec[%d]: %v != %v", i, want[i], got[i])
		}
	}
}

// TestGraphMatVecVectorFromDevice: the CPU reads MatVec's vector from
// host memory (the row's hostArgs), so a device node producing it
// materializes on the host although nothing else reads it, and the
// product matches per-op execution bit for bit.
func TestGraphMatVecVectorFromDevice(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(78))
	adj := tensor.RandUniform(rng, n, n, 0, 1)
	vec := tensor.RandUniform(rng, 1, n, -1, 1)

	ctx := NewContext(Config{})
	defer ctx.Close()
	g := ctx.NewGraph()
	x := g.ReLU(ctx.CreateMatrixBuffer(vec))
	mv := g.MatVec(ctx.CreateMatrixBuffer(adj), x)
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}
	if x.OnChip() {
		t.Fatal("MatVec's vector operand stayed on-chip")
	}
	got, err := mv.Vector()
	if err != nil {
		t.Fatal(err)
	}

	ctx2 := NewContext(Config{})
	defer ctx2.Close()
	s := ctx2.NewOp()
	want := s.MatVec(ctx2.CreateMatrixBuffer(adj), s.ReLU(ctx2.CreateMatrixBuffer(vec)).Data)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("matvec[%d]: %v != %v", i, want[i], got[i])
		}
	}
}

// TestGraphIsolatedNodesNotPinned: only nodes touched by an on-chip
// edge may pin to a chain home device. A graph of independent (or
// host-separated) nodes must keep the per-instruction affinity/FCFS
// placement, or a large multi-tile Gemm that would spread over the
// whole pool per-op collapses onto one device when submitted as a
// graph (the multi-TPU scaling regression caught by Figure 8's shape
// test on the migrated backprop workload).
func TestGraphIsolatedNodesNotPinned(t *testing.T) {
	const n = 64
	a, b, c := graphChainInputs(n)
	ctx := NewContext(Config{})
	defer ctx.Close()
	ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)

	g := ctx.NewGraph()
	fetched := g.MatMul(ba, bb).Fetch() // host-materialized: no chip edge out
	host := g.HostOp("toHost", n, n, 0,
		func(in []*tensor.Matrix) *tensor.Matrix { return in[0].Clone() }, fetched)
	tail := g.Add(host, bc) // consumes a host value: no chip edge in
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range []*Node{fetched, tail} {
		if nd.cell != nil {
			t.Fatalf("%s#%d pinned to a chain cell without any on-chip edge", nd.op, nd.id)
		}
	}

	// A chained pair must still share one pinned cell: the consumer has
	// to land where the producer's intermediate actually lives.
	g2 := ctx.NewGraph()
	head := g2.MatMul(ba, bb)
	leaf := head.Tanh()
	if err := g2.Submit(); err != nil {
		t.Fatal(err)
	}
	if !head.OnChip() {
		t.Fatal("chained head should stay on-chip")
	}
	if head.cell == nil || head.cell != leaf.cell {
		t.Fatal("chained producer and consumer must share one home cell")
	}
}

// TestGraphTimingOnlyReduceChain pins the timing-only publication
// contract for reduce nodes: like every other node kind they must
// publish a shape descriptor, never a real zero matrix, so a
// downstream consumer in a paper-scale timing sweep cannot silently
// compute on fabricated data. The chain off the reduce must still
// charge virtual time and complete.
func TestGraphTimingOnlyReduceChain(t *testing.T) {
	ctx := NewContext(Config{TimingOnly: true})
	defer ctx.Close()

	g := ctx.NewGraph()
	a := ctx.CreateMatrixBuffer(tensor.ShapeOnly(96, 96))
	one := ctx.CreateMatrixBuffer(tensor.ShapeOnly(1, 1))
	mean := g.Mean(a)
	down := mean.Add(one).Fetch() // consumes the reduce output on-device
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}

	m, err := mean.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsShapeOnly() {
		t.Fatalf("timing-only reduce published real data %v, want shape-only", m.Data)
	}
	dm, err := down.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !dm.IsShapeOnly() || dm.Rows != 1 || dm.Cols != 1 {
		t.Fatalf("downstream of reduce: shapeOnly=%v shape=%dx%d, want shape-only 1x1",
			dm.IsShapeOnly(), dm.Rows, dm.Cols)
	}
	if down.End() <= mean.End() || mean.End() <= 0 {
		t.Fatalf("virtual time did not advance through the chain: mean=%v down=%v", mean.End(), down.End())
	}
}

// TestGraphConv2DKernelValidation pins the build-time panic contract:
// a malformed kernel operand (empty or larger than the input) must
// fail at node construction like every other graph operator's shape
// check, not deep inside Stream at Submit.
func TestGraphConv2DKernelValidation(t *testing.T) {
	ctx := testCtx(1)
	in := ctx.CreateMatrixBuffer(tensor.New(8, 8))
	for _, tc := range []struct {
		name    string
		kr, kc  int
		strided bool
	}{
		{"empty", 0, 0, false},
		{"oversized-rows", 9, 3, false},
		{"oversized-cols", 3, 9, false},
		{"strided-empty", 0, 3, true},
		{"strided-oversized", 3, 9, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := ctx.NewGraph()
			defer func() {
				if recover() == nil {
					t.Fatal("expected node-construction panic")
				}
			}()
			k := ctx.CreateMatrixBuffer(tensor.New(tc.kr, tc.kc))
			if tc.strided {
				g.Conv2DStrided(in, k, 2, 2)
			} else {
				g.Conv2D(in, k)
			}
		})
	}
	// The same shapes must still be accepted when valid.
	g := ctx.NewGraph()
	k := ctx.CreateMatrixBuffer(tensor.FromSlice(3, 3, make([]float32, 9)))
	g.Conv2D(in, k)
	g.Conv2DStrided(in, k, 2, 2)
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphUpstreamPoisoningMixedKinds: one failed device node feeding
// a HostOp, a MatVec and a reduce — every downstream accessor must
// return the ErrUpstream wrap with the root cause reachable, and
// Submit must report only the root cause.
func TestGraphUpstreamPoisoningMixedKinds(t *testing.T) {
	ctx := NewContext(Config{})
	defer ctx.Close()
	a, b, _ := graphChainInputs(64)
	bad := tensor.New(64, 64)
	bad.Set(1, 2, float32(math.NaN()))

	g := ctx.NewGraph()
	ba, bb, bbad := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(bad)
	vec := ctx.CreateMatrixBuffer(tensor.RandUniform(rand.New(rand.NewSource(7)), 1, 64, -1, 1))

	root := g.MatMul(bbad, bb) // fails with ErrBadInput
	host := g.HostOp("scale", 64, 64, time.Microsecond, func(in []*tensor.Matrix) *tensor.Matrix {
		t.Fatal("host fn ran despite poisoned input")
		return nil
	}, root)
	mv := g.MatVec(root, vec)
	red := g.Mean(root)
	healthy := g.MatMul(ba, bb).Fetch()

	err := g.Submit()
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("Submit err = %v, want root ErrBadInput", err)
	}
	if errors.Is(err, ErrUpstream) {
		t.Fatalf("Submit err = %v must be the root cause, not an ErrUpstream wrap", err)
	}

	if _, aerr := host.Result(); !errors.Is(aerr, ErrUpstream) || !errors.Is(aerr, ErrBadInput) {
		t.Fatalf("HostOp Result err = %v, want ErrUpstream wrapping ErrBadInput", aerr)
	}
	if _, aerr := mv.Vector(); !errors.Is(aerr, ErrUpstream) || !errors.Is(aerr, ErrBadInput) {
		t.Fatalf("MatVec Vector err = %v, want ErrUpstream wrapping ErrBadInput", aerr)
	}
	if _, aerr := red.Scalar(); !errors.Is(aerr, ErrUpstream) || !errors.Is(aerr, ErrBadInput) {
		t.Fatalf("reduce Scalar err = %v, want ErrUpstream wrapping ErrBadInput", aerr)
	}
	if healthy.Err() != nil {
		t.Fatalf("independent branch poisoned: %v", healthy.Err())
	}
}

// TestGraphReleasesDeadIntermediates: once its last consumer has run,
// an unfetched device node's output goes back to the context — a
// host-consumed one and an on-chip shadow alike — and backs a later
// node's result, while Result on it reports ErrReleased.
func TestGraphReleasesDeadIntermediates(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	a, b, c := graphChainInputs(32)
	ba, bb, bc := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b), ctx.CreateMatrixBuffer(c)
	g := ctx.NewGraph()
	sum := g.Add(ba, bb)
	half := g.HostOp("halve", 32, 32, 0, func(in []*tensor.Matrix) *tensor.Matrix {
		out := in[0].Clone()
		out.Scale(0.5)
		return out
	}, sum)
	prod := g.MulPair(half, sum) // sum's second, last consumer
	chip := g.MatMul(prod, bc)   // takes sum's memory; prod's shadow dies here
	add := chip.Add(ba)          // and backs this result
	leaf := add.Tanh()
	tap := &nodeTap{g: g}
	if err := g.SubmitObserved(tap); err != nil {
		t.Fatal(err)
	}
	if sameMemory(tap.outs[prod.id], tap.outs[sum.id]) {
		t.Fatal("sum's output was reused while its last consumer still read it")
	}
	if !sameMemory(tap.outs[chip.id], tap.outs[sum.id]) {
		t.Fatal("the node after sum's last consumer did not reuse sum's released output")
	}
	if !sameMemory(tap.outs[add.id], tap.outs[prod.id]) {
		t.Fatal("the node after prod's last consumer did not reuse prod's released shadow")
	}
	lm, err := leaf.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !prod.OnChip() || !chip.OnChip() {
		t.Fatal("prod and chip should have stayed on-chip")
	}
	if _, err := sum.Result(); !errors.Is(err, ErrReleased) {
		t.Fatalf("released node Result err = %v, want ErrReleased", err)
	}
	if _, err := prod.Result(); !errors.Is(err, ErrOnChip) {
		t.Fatalf("on-chip node Result err = %v, want ErrOnChip", err)
	}

	// The same chain per-op gives the same bits.
	s := ctx.NewOp()
	sm := s.Add(ba, bb)
	hm := sm.Clone()
	hm.Scale(0.5)
	pm := s.Mul(ctx.CreateMatrixBuffer(hm), ctx.CreateMatrixBuffer(sm))
	want := s.Tanh(ctx.CreateMatrixBuffer(s.Add(ctx.CreateMatrixBuffer(s.Gemm(ctx.CreateMatrixBuffer(pm), bc)), ba)))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	bitIdentical(t, want, lm, "graph with released intermediates vs per-op")
}

// TestGraphKeepsLiveResults: a Fetch'ed node with a consumer, a leaf,
// and a node whose HostOp consumer returned its input as the host
// node's output all keep their results; nothing reaches the free list.
func TestGraphKeepsLiveResults(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	a, b, _ := graphChainInputs(32)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)
	g := ctx.NewGraph()
	fetched := g.Add(ba, bb).Fetch()
	leaf := fetched.Tanh()
	aliased := g.ReLU(ba)
	same := g.HostOp("same", 32, 32, 0, func(in []*tensor.Matrix) *tensor.Matrix { return in[0] }, aliased)
	if err := g.Submit(); err != nil {
		t.Fatal(err)
	}
	s := ctx.NewOp()
	for _, c := range []struct {
		name string
		n    *Node
		want *tensor.Matrix
	}{
		{"fetched", fetched, s.Add(ba, bb)},
		{"leaf", leaf, s.Tanh(ctx.CreateMatrixBuffer(s.Add(ba, bb)))},
		{"aliased", aliased, s.ReLU(ba)},
		{"host output", same, s.ReLU(ba)},
	} {
		got, err := c.n.Result()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bitIdentical(t, c.want, got, c.name)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if n := freeLen(ctx); n != 0 {
		t.Fatalf("free list holds %d matrices after a graph with no dead intermediate", n)
	}
}

// TestGraphReleaseHammer submits graphs with HostOps from concurrent
// goroutines on one context: every intermediate goes back to the one
// free list the others draw their results from. Under -race (make
// flake-gate runs it twenty times) an output released while a host
// node or the caller still reads it, or a list update outside the
// lock, fails here.
func TestGraphReleaseHammer(t *testing.T) {
	ctx := testCtx(2)
	defer ctx.Close()
	a, b, _ := graphChainInputs(24)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)
	run := func(mark float32) (*tensor.Matrix, error) {
		g := ctx.NewGraph()
		scaled := g.HostOp("mark", 24, 24, 0, func(in []*tensor.Matrix) *tensor.Matrix {
			out := in[0].Clone()
			out.Scale(mark)
			runtime.Gosched()
			return out
		}, g.Add(ba, bb))
		leaf := g.MulPair(scaled, bb).Tanh()
		if err := g.Submit(); err != nil {
			return nil, err
		}
		return leaf.Result()
	}
	const tasks, rounds = 8, 10
	want := make([]*tensor.Matrix, tasks)
	for k := range want {
		m, err := run(float32(k + 1))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = m.Clone()
	}
	var wg sync.WaitGroup
	errs := make(chan string, tasks)
	for k := 0; k < tasks; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := run(float32(k + 1))
				if err != nil {
					errs <- err.Error()
					return
				}
				if !got.Equal(want[k]) {
					errs <- "a graph result changed under concurrent releases"
					return
				}
				ctx.Release(got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
