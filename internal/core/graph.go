package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/tensor"
	"repro/internal/timing"
)

// ErrUpstream is the typed error a graph node reports when one of its
// dependencies failed: the node never executes, so a mid-chain failure
// poisons everything downstream instead of computing on garbage.
var ErrUpstream = errors.New("core: upstream graph node failed")

// ErrOnChip is returned by Node.Result for a node whose output stayed
// in on-chip memory: there is no host materialization to return. Call
// Fetch before Submit to download the result.
var ErrOnChip = errors.New("core: node result resides on-chip (call Fetch before Submit)")

// Value is anything a graph node can consume as an operand: a host
// *Buffer or the output handle of an upstream *Node.
type Value interface {
	dims() (rows, cols int)
	asNode() *Node
}

func (b *Buffer) dims() (int, int) { return b.M.Rows, b.M.Cols }
func (b *Buffer) asNode() *Node    { return nil }

// Graph builds a DAG of device instructions over symbolic node
// handles and submits it as one unit of work. Intermediates between
// device nodes stay in on-chip memory — no download, no host
// dequantization, no re-encode — while the host keeps a shadow copy
// so functional results stay bit-identical to per-op execution.
//
//	g := ctx.NewGraph()
//	out := g.MatMul(a, b).Add(c).Tanh()
//	if err := g.Submit(); err != nil { ... }
//	m, _ := out.Result()
//
// Submission walks the DAG in topological (construction) order on the
// calling goroutine, so the charge order — and therefore the virtual
// makespan — is bit-identical at any worker count, the same invariant
// the per-op engine keeps. Independent subgraphs still overlap in
// virtual time: each node starts at its dependencies' completion, not
// at its predecessor-in-walk-order's, and chains pin to distinct
// devices elected first-come-first-serve.
//
// A Graph is built and submitted from one goroutine; it is not safe
// for concurrent use. Submit may be called once.
type Graph struct {
	c         *Context
	taskID    int
	places    placements // the affinity table every node stream shares
	nodes     []*Node
	segLen    int // chip-chain segment length; 0 = never split
	submitted bool
}

// NewGraph opens an empty dataflow graph. All nodes of the graph
// share one OPQ task identity, so the scheduler's locality rule (and
// device residency) treats the whole graph as one task.
func (c *Context) NewGraph() *Graph {
	return &Graph{c: c, taskID: c.nextTask()}
}

// SegmentChains caps how many consecutive on-chip nodes may pin to
// one device before the chain is cut: each segment elects its own
// home device, and the intermediate crossing a cut is honestly charged
// device→host→device. The default (0) never splits — a whole chain
// stays on its home device with zero intermediate transfers, which
// maximizes locality but serializes the chain on one device.
// Segmenting trades transfer cost for cross-device exec overlap on
// long chains (the Villarrubia-style pipelining policy).
func (g *Graph) SegmentChains(n int) *Graph {
	if g.submitted {
		panic("core: SegmentChains after Submit")
	}
	g.segLen = n
	return g
}

type nodeKind int

const (
	kDevice nodeKind = iota // matrix-out device operator
	kMatVec                 // FullyConnected mat×vec, CPU-aggregated vector out
	kReduce                 // Mean/Max, CPU-aggregated scalar out
	kHost                   // application host code between device nodes
)

// Node is one operation of a Graph: a symbolic handle for an output
// that does not exist until Submit. Chain further device ops off it
// (n.Add(x).Tanh()), feed it to host nodes, or Fetch it to force host
// materialization of the result.
type Node struct {
	g          *Graph
	id         int
	kind       nodeKind
	op         string
	args       []Value
	rows, cols int

	// kDevice: the operator invocation, given the resolved operand
	// buffers in args order.
	run func(s *Stream, in []*Buffer) *tensor.Matrix
	// kHost: application closure + its charged CPU cost.
	hostFn   func(in []*tensor.Matrix) *tensor.Matrix
	hostCost timing.Duration
	// kReduce/kMatVec executions are dispatched on kind+op.

	fetch bool // host materialization requested (or forced)

	// Filled by Submit.
	cell   *graphHome // chain placement cell (device nodes)
	chip   bool       // output stayed in on-chip memory
	out    *tensor.Matrix
	vec    []float32
	scalar float32
	buf    *Buffer // output as a consumable operand
	end    timing.Duration
	err    error
}

func (n *Node) dims() (int, int) { return n.rows, n.cols }
func (n *Node) asNode() *Node    { return n }

// Rows returns the node's output row count.
func (n *Node) Rows() int { return n.rows }

// Cols returns the node's output column count.
func (n *Node) Cols() int { return n.cols }

// Fetch marks the node's output for host materialization: Submit
// downloads and dequantizes it like per-op execution would, making
// Result available. Leaves (nodes nothing consumes) and nodes feeding
// host code are fetched automatically.
func (n *Node) Fetch() *Node {
	if n.g.submitted {
		panic("core: Fetch after Submit")
	}
	n.fetch = true
	return n
}

// Err returns the node's execution error: nil before Submit and on
// success, the root failure on the node that failed, and an
// ErrUpstream-wrapped chain on every node downstream of a failure.
func (n *Node) Err() error { return n.err }

// OnChip reports whether the node's output stayed in on-chip memory
// (meaningful after Submit).
func (n *Node) OnChip() bool { return n.chip }

// End returns the node's virtual completion time (after Submit).
func (n *Node) End() timing.Duration { return n.end }

// Result returns the node's materialized output matrix. It fails with
// ErrOnChip for intermediates that never left the device, and with
// the node's execution error if it (or an upstream node) failed. In
// timing-only mode the matrix is shape-only.
func (n *Node) Result() (*tensor.Matrix, error) {
	if n.err != nil {
		return nil, n.err
	}
	if !n.g.submitted {
		return nil, errors.New("core: Result before Submit")
	}
	if n.chip {
		return nil, ErrOnChip
	}
	return n.out, nil
}

// Vector returns a MatVec node's aggregated vector result.
func (n *Node) Vector() ([]float32, error) {
	if n.err != nil {
		return nil, n.err
	}
	if n.kind != kMatVec {
		return nil, fmt.Errorf("core: Vector on %s node", n.op)
	}
	if !n.g.submitted {
		return nil, errors.New("core: Vector before Submit")
	}
	return n.vec, nil
}

// Scalar returns a Mean/MaxReduce node's scalar result.
func (n *Node) Scalar() (float32, error) {
	if n.err != nil {
		return 0, n.err
	}
	if n.kind != kReduce {
		return 0, fmt.Errorf("core: Scalar on %s node", n.op)
	}
	if !n.g.submitted {
		return 0, errors.New("core: Scalar before Submit")
	}
	return n.scalar, nil
}

// add registers a node, validating graph ownership of node operands.
func (g *Graph) add(n *Node) *Node {
	if g.submitted {
		panic("core: graph op after Submit")
	}
	for _, a := range n.args {
		if d := a.asNode(); d != nil && d.g != g {
			panic("core: node from a different graph")
		}
	}
	n.g = g
	n.id = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// device registers a matrix-out device-operator node.
func (g *Graph) device(op string, rows, cols int, run func(s *Stream, in []*Buffer) *tensor.Matrix, args ...Value) *Node {
	return g.add(&Node{kind: kDevice, op: op, rows: rows, cols: cols, run: run, args: args})
}

// MatMul adds a tpuGemm node: a (M×N) times b (N×K).
func (g *Graph) MatMul(a, b Value) *Node {
	ar, ac := a.dims()
	br, bc := b.dims()
	checkShapes("graph.MatMul", ac == br, "inner dimensions %d vs %d", ac, br)
	return g.device("tpuGemm", ar, bc, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return s.Gemm(in[0], in[1])
	}, a, b)
}

// MatMulFC adds the FullyConnected-only GEMM of section 7.1.1 (the
// paper's slow baseline). Its per-column CPU aggregation always
// materializes on the host.
func (g *Graph) MatMulFC(a, b Value) *Node {
	ar, ac := a.dims()
	br, bc := b.dims()
	checkShapes("graph.MatMulFC", ac == br, "inner dimensions %d vs %d", ac, br)
	n := g.device("tpuGemmFC", ar, bc, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return s.GemmFC(in[0], in[1])
	}, a, b)
	n.fetch = true
	return n
}

// Add adds a pair-wise addition node.
func (g *Graph) Add(a, b Value) *Node { return g.pairwise("add", a, b, (*Stream).Add) }

// Sub adds a pair-wise subtraction node.
func (g *Graph) Sub(a, b Value) *Node { return g.pairwise("sub", a, b, (*Stream).Sub) }

// MulPair adds a pair-wise (Hadamard) multiplication node.
func (g *Graph) MulPair(a, b Value) *Node { return g.pairwise("mul", a, b, (*Stream).Mul) }

func (g *Graph) pairwise(op string, a, b Value, f func(*Stream, *Buffer, *Buffer) *tensor.Matrix) *Node {
	ar, ac := a.dims()
	br, bc := b.dims()
	checkShapes("graph."+op, ar == br && ac == bc, "shape mismatch %dx%d vs %dx%d", ar, ac, br, bc)
	return g.device(op, ar, ac, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return f(s, in[0], in[1])
	}, a, b)
}

// Tanh adds an element-wise tanh node.
func (g *Graph) Tanh(a Value) *Node { return g.elementwise("tanh", a, (*Stream).Tanh) }

// ReLU adds an element-wise ReLU node.
func (g *Graph) ReLU(a Value) *Node { return g.elementwise("relu", a, (*Stream).ReLU) }

func (g *Graph) elementwise(op string, a Value, f func(*Stream, *Buffer) *tensor.Matrix) *Node {
	ar, ac := a.dims()
	return g.device(op, ar, ac, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return f(s, in[0])
	}, a)
}

// Conv2D adds a stride-(1,1) 2-D convolution node of a by kernel.
func (g *Graph) Conv2D(a, kernel Value) *Node {
	ar, ac := a.dims()
	kr, kc := kernel.dims()
	checkShapes("graph.conv2D", kr > 0 && kc > 0 && kr <= ar && kc <= ac,
		"kernel %dx%d incompatible with input %dx%d", kr, kc, ar, ac)
	return g.device("conv2D", ar, ac, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return s.Conv2D(in[0], in[1])
	}, a, kernel)
}

// Conv2DStrided adds a strided 2-D convolution node.
func (g *Graph) Conv2DStrided(a, kernel Value, strideR, strideC int) *Node {
	ar, ac := a.dims()
	kr, kc := kernel.dims()
	checkShapes("graph.conv2DStrided", strideR > 0 && strideC > 0,
		"strides must be positive (%d,%d)", strideR, strideC)
	checkShapes("graph.conv2DStrided", kr > 0 && kc > 0 && kr <= ar && kc <= ac,
		"kernel %dx%d incompatible with input %dx%d", kr, kc, ar, ac)
	return g.device("conv2DStrided", (ar+strideR-1)/strideR, (ac+strideC-1)/strideC,
		func(s *Stream, in []*Buffer) *tensor.Matrix {
			return s.Conv2DStrided(in[0], in[1], strideR, strideC)
		}, a, kernel)
}

// Crop adds a sub-matrix extraction node.
func (g *Graph) Crop(a Value, r0, c0, rows, cols int) *Node {
	ar, ac := a.dims()
	checkShapes("graph.crop", r0 >= 0 && c0 >= 0 && rows >= 0 && cols >= 0 && r0+rows <= ar && c0+cols <= ac,
		"window (%d,%d)+%dx%d outside %dx%d", r0, c0, rows, cols, ar, ac)
	return g.device("crop", rows, cols, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return s.Crop(in[0], r0, c0, rows, cols)
	}, a)
}

// Ext adds a zero-padding node to the target shape.
func (g *Graph) Ext(a Value, rows, cols int) *Node {
	ar, ac := a.dims()
	checkShapes("graph.ext", rows >= ar && cols >= ac,
		"target %dx%d smaller than %dx%d", rows, cols, ar, ac)
	return g.device("ext", rows, cols, func(s *Stream, in []*Buffer) *tensor.Matrix {
		return s.Ext(in[0], rows, cols)
	}, a)
}

// MatVec adds a matrix-vector product node: a (M×N) times the vector
// x (a 1×N or N×1 value). Its per-tile partials are CPU-aggregated by
// design (section 6.2.1), so the result always materializes on the
// host; read it with Vector.
func (g *Graph) MatVec(a, x Value) *Node {
	ar, ac := a.dims()
	xr, xc := x.dims()
	checkShapes("graph.matVec", (xr == 1 || xc == 1) && xr*xc == ac,
		"vector %dx%d incompatible with matrix cols %d", xr, xc, ac)
	n := g.add(&Node{kind: kMatVec, op: "matVec", rows: 1, cols: ar, args: []Value{a, x}})
	n.fetch = true
	return n
}

// Mean adds a matrix-wise mean-reduction node; read it with Scalar.
func (g *Graph) Mean(a Value) *Node { return g.reduce("mean", a) }

// MaxReduce adds a matrix-wise max-reduction node; read it with Scalar.
func (g *Graph) MaxReduce(a Value) *Node { return g.reduce("max", a) }

func (g *Graph) reduce(op string, a Value) *Node {
	ar, ac := a.dims()
	checkShapes("graph."+op, ar > 0 && ac > 0, "empty operand %dx%d", ar, ac)
	n := g.add(&Node{kind: kReduce, op: op, rows: 1, cols: 1, args: []Value{a}})
	n.fetch = true
	return n
}

// HostOp adds an application CPU node: fn runs on the host between
// device nodes (e.g. PageRank's damping or backprop's error scaling),
// charging cost of virtual CPU time at its dependencies' completion.
// In timing-only mode fn is skipped and the output is shape-only.
// Device nodes feeding a HostOp are host-materialized automatically —
// host code cannot read on-chip memory.
func (g *Graph) HostOp(name string, rows, cols int, cost timing.Duration, fn func(in []*tensor.Matrix) *tensor.Matrix, deps ...Value) *Node {
	return g.add(&Node{kind: kHost, op: name, rows: rows, cols: cols, hostCost: cost, hostFn: fn, args: deps})
}

// Chaining forms: n.Op(...) reads as "apply Op to n's output".

// MatMul chains a tpuGemm of this node's output by b.
func (n *Node) MatMul(b Value) *Node { return n.g.MatMul(n, b) }

// Add chains a pair-wise addition with b.
func (n *Node) Add(b Value) *Node { return n.g.Add(n, b) }

// Sub chains a pair-wise subtraction of b.
func (n *Node) Sub(b Value) *Node { return n.g.Sub(n, b) }

// MulPair chains a pair-wise multiplication with b.
func (n *Node) MulPair(b Value) *Node { return n.g.MulPair(n, b) }

// Tanh chains an element-wise tanh.
func (n *Node) Tanh() *Node { return n.g.Tanh(n) }

// ReLU chains an element-wise ReLU.
func (n *Node) ReLU() *Node { return n.g.ReLU(n) }

// Conv2D chains a stride-(1,1) convolution by kernel.
func (n *Node) Conv2D(kernel Value) *Node { return n.g.Conv2D(n, kernel) }

// Crop chains a sub-matrix extraction.
func (n *Node) Crop(r0, c0, rows, cols int) *Node { return n.g.Crop(n, r0, c0, rows, cols) }

// Ext chains a zero-padding to the target shape.
func (n *Node) Ext(rows, cols int) *Node { return n.g.Ext(n, rows, cols) }

// Mean chains a mean reduction.
func (n *Node) Mean() *Node { return n.g.Mean(n) }

// MaxReduce chains a max reduction.
func (n *Node) MaxReduce() *Node { return n.g.MaxReduce(n) }

// Submit executes the graph and returns the first (root-cause) node
// error, if any. See SubmitObserved.
func (g *Graph) Submit() error { return g.SubmitObserved(nil) }

// SubmitObserved executes the whole graph as one submission: nodes
// walk in construction order (a topological order — operands must
// exist before their consumers), each starting at the later of the
// submission epoch and its dependencies' virtual completion. Device
// instructions of every node enter the IQ from this goroutine in that
// fixed order, so virtual makespans are bit-identical at any worker
// count. Intermediates between device nodes stay on-chip on the
// chain's home device; everything the user (or a host node) needs is
// materialized exactly as per-op execution would.
//
// obs, when non-nil, receives one "node" span per node plus the usual
// per-instruction queue_wait/charge/exec spans.
//
// A failed node does not abort the walk: independent subgraphs still
// run, while the failure's downstream nodes are poisoned with
// ErrUpstream. The returned error is the first root failure in walk
// order; per-node outcomes are on Node.Err.
func (g *Graph) SubmitObserved(obs TaskObserver) error {
	if g.submitted {
		return errors.New("core: graph already submitted")
	}
	g.submitted = true
	c := g.c
	c.met.graphSubmits.Inc()
	c.met.graphNodes.Add(float64(len(g.nodes)))
	g.analyze()
	epoch := c.TL.Makespan()
	defer c.dropPlacements(&g.places) // a graph submits once: its task ends here

	var firstErr error
	for _, n := range g.nodes {
		start := time.Now()
		g.runNode(n, epoch, obs)
		if obs != nil {
			obs.ObserveSpan("node", start, time.Since(start), fmt.Sprintf("%s#%d", n.op, n.id))
		}
		if n.err != nil && firstErr == nil && !errors.Is(n.err, ErrUpstream) {
			firstErr = n.err
		}
	}
	return firstErr
}

// analyze decides, before any execution, which node outputs stay
// on-chip and which chain cell each device node pins to.
//
// Residency rule: a device matrix output stays on-chip iff every one
// of its consumers reads it as a device operand and the user did not
// Fetch it. Leaves, Fetch'd nodes, MatVec vector operands and HostOp
// inputs materialize on the host.
//
// Placement rule: nodes connected by on-chip edges form a chain
// component sharing one home cell (segmented by on-chip depth when
// SegmentChains is set); the component's first charged instruction
// elects the device. Unconnected nodes keep the per-instruction
// affinity/FCFS policy, which is what lets independent subgraphs
// spread across the pool.
func (g *Graph) analyze() {
	hostConsumed := make([]bool, len(g.nodes))
	devConsumers := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		for i, a := range n.args {
			d := a.asNode()
			if d == nil {
				continue
			}
			if n.kind == kHost || (n.kind == kMatVec && i == 1) {
				hostConsumed[d.id] = true
			} else {
				devConsumers[d.id]++
			}
		}
	}
	for _, n := range g.nodes {
		n.chip = n.kind == kDevice && !n.fetch && devConsumers[n.id] > 0 && !hostConsumed[n.id]
		if !n.chip {
			n.fetch = true
		}
	}

	// Chain components over on-chip edges (union-find).
	parent := make([]int, len(g.nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	depth := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		for _, a := range n.args {
			if d := a.asNode(); d != nil && d.chip {
				if n.kind == kDevice {
					parent[find(n.id)] = find(d.id)
				}
				if dd := depth[d.id] + 1; dd > depth[n.id] {
					depth[n.id] = dd
				}
			}
		}
	}
	cells := make(map[[2]int]*graphHome)
	for _, n := range g.nodes {
		if n.kind != kDevice {
			// MatVec/reduce nodes keep the per-instruction policy: the
			// affinity rule on their (large, reused) matrix operand's key
			// already places them well.
			continue
		}
		chipIn := false
		for _, a := range n.args {
			if d := a.asNode(); d != nil && d.chip {
				chipIn = true
				break
			}
		}
		if !n.chip && !chipIn {
			// No on-chip edge touches this node: pinning its instructions
			// to one device would only serialize them. Keep the normal
			// affinity/FCFS placement so large isolated nodes still tile
			// across the whole pool.
			continue
		}
		seg := 0
		if g.segLen > 0 {
			seg = depth[n.id] / g.segLen
		}
		key := [2]int{find(n.id), seg}
		cell, ok := cells[key]
		if !ok {
			cell = &graphHome{}
			cells[key] = cell
		}
		n.cell = cell
	}
}

// operand resolves one node argument into a consumable buffer,
// reporting the dependency's virtual completion.
func (g *Graph) operand(a Value) (*Buffer, timing.Duration, error) {
	d := a.asNode()
	if d == nil {
		return a.(*Buffer), 0, nil
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("%w: %s#%d: %w", ErrUpstream, d.op, d.id, d.err)
	}
	return d.buf, d.end, nil
}

// runNode executes one node at the later of epoch and its
// dependencies' completion, then publishes its output buffer.
func (g *Graph) runNode(n *Node, epoch timing.Duration, obs TaskObserver) {
	c := g.c
	ready := epoch
	bufs := make([]*Buffer, len(n.args))
	for i, a := range n.args {
		b, end, err := g.operand(a)
		if err != nil {
			n.err = err
			return
		}
		bufs[i] = b
		if end > ready {
			ready = end
		}
	}

	switch n.kind {
	case kHost:
		n.end = c.chargeHost(ready, n.hostCost)
		if c.Functional() {
			ins := make([]*tensor.Matrix, len(bufs))
			for i, b := range bufs {
				ins[i] = b.M
			}
			n.out = n.hostFn(ins)
			checkShapes("graph."+n.op, n.out != nil && n.out.Rows == n.rows && n.out.Cols == n.cols,
				"host node returned %v, declared %dx%d", shapeOf(n.out), n.rows, n.cols)
		} else {
			n.out = tensor.ShapeOnly(n.rows, n.cols)
		}

	case kMatVec:
		s := &Stream{c: c, taskID: g.taskID, now: ready, obs: obs, places: &g.places}
		x := vectorData(c, bufs[1].M)
		n.vec = s.MatVec(bufs[0], x)
		if err := s.Err(); err != nil {
			n.err = err
			return
		}
		n.end = s.now
		if c.Functional() {
			n.out = tensor.FromSlice(1, n.cols, n.vec)
		} else {
			n.out = tensor.ShapeOnly(1, n.cols)
		}

	case kReduce:
		s := &Stream{c: c, taskID: g.taskID, now: ready, obs: obs, places: &g.places}
		var v float32
		if n.op == "mean" {
			v = s.Mean(bufs[0])
		} else {
			v = s.Max(bufs[0])
		}
		if err := s.Err(); err != nil {
			n.err = err
			return
		}
		n.end = s.now
		n.scalar = v
		if c.Functional() {
			n.out = tensor.FromSlice(1, 1, []float32{v})
		} else {
			// Shape descriptor like every other node kind: a timing-only
			// downstream consumer must never compute on a real zero matrix.
			n.out = tensor.ShapeOnly(1, 1)
		}

	default: // kDevice
		s := &Stream{c: c, taskID: g.taskID, now: ready, obs: obs, places: &g.places, pin: n.cell, onChip: n.chip}
		out := n.run(s, bufs)
		if err := s.Err(); err != nil {
			n.err = err
			return
		}
		n.end = s.now
		n.out = out
	}

	// Publish the output as an operand for downstream nodes. A chip
	// node's buffer carries its residency (home cell + the cell's
	// current rebind generation); the float matrix is only the host
	// shadow that keeps functional math bit-identical.
	if n.out != nil {
		n.buf = c.CreateMatrixBuffer(n.out)
		if n.chip {
			c.mu.Lock()
			gen := n.cell.gen
			c.mu.Unlock()
			n.buf.chip = &chipResidency{home: n.cell, gen: gen, ready: n.end}
			c.met.graphChipEdges.Inc()
		}
	}
}

// vectorData flattens a 1×N or N×1 matrix into the float slice MatVec
// consumes; timing-only shape descriptors synthesize zeros.
func vectorData(c *Context, m *tensor.Matrix) []float32 {
	nel := m.Rows * m.Cols
	if !c.Functional() || m.Data == nil {
		return make([]float32, nel)
	}
	if m.Rows == 1 && m.Stride == m.Cols {
		return m.Data[:nel]
	}
	out := make([]float32, 0, nel)
	for r := 0; r < m.Rows; r++ {
		for cc := 0; cc < m.Cols; cc++ {
			out = append(out, m.At(r, cc))
		}
	}
	return out
}

func shapeOf(m *tensor.Matrix) string {
	if m == nil {
		return "nil"
	}
	return fmt.Sprintf("%dx%d", m.Rows, m.Cols)
}
