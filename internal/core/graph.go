package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
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

// ErrReleased is returned by Node.Result for a device intermediate
// whose output Submit handed back to the context after its last
// consumer ran. Call Fetch before Submit to keep the result.
var ErrReleased = errors.New("core: node result was released after its last consumer (call Fetch before Submit)")

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

// Node is one operation of a Graph: a symbolic handle for an output
// that does not exist until Submit. Chain further device ops off it
// (n.Add(x).Tanh()), feed it to host nodes, or Fetch it to force host
// materialization of the result.
type Node struct {
	g          *Graph
	id         int
	name       string // the operator's label, or the host node's name
	args       []Value
	rows, cols int

	// A device node applies a table operator with its parameters to
	// the resolved operands, in args order.
	op     Operator
	params Params
	// A host node runs an application closure and charges its CPU cost.
	host     bool
	hostFn   func(in []*tensor.Matrix) *tensor.Matrix
	hostCost timing.Duration

	fetch bool // host materialization requested (or forced)
	kept  bool // Fetch'd, CPU-aggregated, or returned by a host node: never released

	// Filled by Submit.
	cell     *graphHome // chain placement cell (device nodes)
	chip     bool       // output stayed in on-chip memory
	uses     int        // operand slots still to read the output
	released bool       // output handed back to the context
	out      *tensor.Matrix
	vec      []float32
	scalar   float32
	buf      *Buffer // output as a consumable operand
	end      timing.Duration
	err      error
}

func (n *Node) dims() (int, int) { return n.rows, n.cols }
func (n *Node) asNode() *Node    { return n }

// Rows returns the node's output row count.
func (n *Node) Rows() int { return n.rows }

// Cols returns the node's output column count.
func (n *Node) Cols() int { return n.cols }

// Fetch marks the node's output for host materialization: Submit
// downloads and dequantizes it like per-op execution would, and keeps
// it for Result. Leaves (nodes nothing consumes) and results the CPU
// aggregates are fetched and kept automatically. Nodes feeding host
// code are materialized too, but unless fetched, a device node's
// output goes back to the context (Context.Release) once its last
// consumer has run.
func (n *Node) Fetch() *Node {
	if n.g.submitted {
		panic("core: Fetch after Submit")
	}
	n.fetch, n.kept = true, true
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
// ErrOnChip for intermediates that never left the device, with
// ErrReleased for intermediates Submit released, and with the node's
// execution error if it (or an upstream node) failed. In timing-only
// mode the matrix is shape-only.
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
	if n.released {
		return nil, ErrReleased
	}
	return n.out, nil
}

// Vector returns a MatVec node's aggregated vector result.
func (n *Node) Vector() ([]float32, error) {
	if n.err != nil {
		return nil, n.err
	}
	if n.host || n.result() != vectorResult {
		return nil, fmt.Errorf("core: Vector on %s node", n.name)
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
	if n.host || n.result() != scalarResult {
		return 0, fmt.Errorf("core: Scalar on %s node", n.name)
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

// Apply adds a node that applies a table operator with parameters p to
// its operands, as many as the operator takes. The table's shape rule
// gives the node its shape and panics on operands that do not fit;
// Submit runs the operator's Stream call. A result the CPU aggregates
// (the FullyConnected GEMM, MatVec, Mean, Max) always materializes on
// the host; read a MatVec with Vector and a reduction with Scalar.
func (g *Graph) Apply(op Operator, p Params, args ...Value) *Node {
	if len(args) != op.Arity() {
		panic(fmt.Sprintf("core: graph.%s takes %d operands, got %d", op, op.Arity(), len(args)))
	}
	ar, ac := args[0].dims()
	var br, bc int
	if len(args) > 1 {
		br, bc = args[1].dims()
	}
	rows, cols := op.mustShape("graph.", p, ar, ac, br, bc)
	cpu := operators[op].result != deviceResult
	return g.add(&Node{name: op.String(), op: op, params: p, rows: rows, cols: cols, args: args,
		fetch: cpu, kept: cpu})
}

// result is a device node's result kind.
func (n *Node) result() resultKind { return operators[n.op].result }

// chains reports whether the node may join an on-chip chain: a device
// node with a matrix result.
func (n *Node) chains() bool { return !n.host && n.result() <= hostResult }

// MatMul adds a tpuGemm node: a (M×N) times b (N×K).
func (g *Graph) MatMul(a, b Value) *Node { return g.Apply(OpGemm, Params{}, a, b) }

// Add adds a pair-wise addition node.
func (g *Graph) Add(a, b Value) *Node { return g.Apply(OpAdd, Params{}, a, b) }

// Sub adds a pair-wise subtraction node.
func (g *Graph) Sub(a, b Value) *Node { return g.Apply(OpSub, Params{}, a, b) }

// MulPair adds a pair-wise (Hadamard) multiplication node.
func (g *Graph) MulPair(a, b Value) *Node { return g.Apply(OpMul, Params{}, a, b) }

// Tanh adds an element-wise tanh node.
func (g *Graph) Tanh(a Value) *Node { return g.Apply(OpTanh, Params{}, a) }

// ReLU adds an element-wise ReLU node.
func (g *Graph) ReLU(a Value) *Node { return g.Apply(OpReLU, Params{}, a) }

// Conv2D adds a stride-(1,1) 2-D convolution node of a by kernel.
func (g *Graph) Conv2D(a, kernel Value) *Node { return g.Apply(OpConv2D, Params{}, a, kernel) }

// Conv2DStrided adds a strided 2-D convolution node.
func (g *Graph) Conv2DStrided(a, kernel Value, strideR, strideC int) *Node {
	return g.Apply(OpConv2DStrided, Params{StrideR: strideR, StrideC: strideC}, a, kernel)
}

// Crop adds a sub-matrix extraction node.
func (g *Graph) Crop(a Value, r0, c0, rows, cols int) *Node {
	return g.Apply(OpCrop, Params{R0: r0, C0: c0, Rows: rows, Cols: cols}, a)
}

// Ext adds a zero-padding node to the target shape.
func (g *Graph) Ext(a Value, rows, cols int) *Node {
	return g.Apply(OpExt, Params{Rows: rows, Cols: cols}, a)
}

// MatVec adds a matrix-vector product node: a (M×N) times the vector
// x (a 1×N or N×1 value). Its per-tile partials are CPU-aggregated by
// design (section 6.2.1), so the result always materializes on the
// host; read it with Vector.
func (g *Graph) MatVec(a, x Value) *Node { return g.Apply(OpMatVec, Params{}, a, x) }

// Mean adds a matrix-wise mean-reduction node; read it with Scalar.
func (g *Graph) Mean(a Value) *Node { return g.Apply(OpMean, Params{}, a) }

// MaxReduce adds a matrix-wise max-reduction node; read it with Scalar.
func (g *Graph) MaxReduce(a Value) *Node { return g.Apply(OpMax, Params{}, a) }

// HostOp adds an application CPU node: fn runs on the host between
// device nodes (e.g. PageRank's damping or backprop's error scaling),
// charging cost of virtual CPU time at its dependencies' completion.
// In timing-only mode fn is skipped and the output is shape-only.
// Device nodes feeding a HostOp are host-materialized automatically —
// host code cannot read on-chip memory. fn's inputs are valid only
// during the call: an unfetched device node's output is released once
// its last consumer has run. fn may return one of its inputs, which
// then stays the host node's output.
func (g *Graph) HostOp(name string, rows, cols int, cost timing.Duration, fn func(in []*tensor.Matrix) *tensor.Matrix, deps ...Value) *Node {
	return g.add(&Node{name: name, host: true, rows: rows, cols: cols, hostCost: cost, hostFn: fn, args: deps})
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
// ob, when non-nil, receives one obs.StageNode span per node plus the
// usual per-instruction queue_wait/charge/exec spans.
//
// A failed node does not abort the walk: independent subgraphs still
// run, while the failure's downstream nodes are poisoned with
// ErrUpstream. The returned error is the first root failure in walk
// order; per-node outcomes are on Node.Err.
func (g *Graph) SubmitObserved(ob TaskObserver) error {
	if g.submitted {
		return errors.New("core: graph already submitted")
	}
	g.submitted = true
	c := g.c
	c.met.graphSubmits.Inc()
	c.met.graphNodes.Add(uint64(len(g.nodes)))
	g.analyze()
	epoch := c.TL.Makespan()
	defer c.dropPlacements(&g.places) // a graph submits once: its task ends here

	var firstErr error
	for _, n := range g.nodes {
		start := time.Now()
		g.runNode(n, epoch, ob)
		if ob != nil {
			ob.ObserveSpan(obs.StageNode, start, time.Since(start), fmt.Sprintf("%s#%d", n.name, n.id))
		}
		if n.err != nil && firstErr == nil && !errors.Is(n.err, ErrUpstream) {
			firstErr = n.err
		}
		for _, a := range n.args {
			if d := a.asNode(); d != nil {
				if d.uses--; d.uses == 0 {
					g.release(d)
				}
			}
		}
	}
	return firstErr
}

// release hands a dead intermediate's output back to the context: a
// device node's, after its last consumer ran, unless it is kept (see
// Node.kept).
func (g *Graph) release(n *Node) {
	if n.host || n.kept || n.out == nil || !g.c.Functional() {
		return
	}
	g.c.Release(n.out)
	n.out, n.buf, n.released = nil, nil, true
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
			d.uses++
			if n.host || operators[n.op].hostArgs&(1<<i) != 0 {
				hostConsumed[d.id] = true
			} else {
				devConsumers[d.id]++
			}
		}
	}
	for _, n := range g.nodes {
		n.chip = !n.host && !n.fetch && devConsumers[n.id] > 0 && !hostConsumed[n.id]
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
				if n.chains() {
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
		if !n.chains() {
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
		return nil, 0, fmt.Errorf("%w: %s#%d: %w", ErrUpstream, d.name, d.id, d.err)
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

	if n.host {
		n.end = c.chargeHost(ready, n.hostCost)
		if c.Functional() {
			ins := make([]*tensor.Matrix, len(bufs))
			for i, b := range bufs {
				ins[i] = b.M
			}
			n.out = n.hostFn(ins)
			if n.out == nil || n.out.Rows != n.rows || n.out.Cols != n.cols {
				panic(fmt.Sprintf("core: graph.%s: host node returned %v, declared %dx%d", n.name, shapeOf(n.out), n.rows, n.cols))
			}
			for i, a := range n.args {
				if d := a.asNode(); d != nil && sameArray(n.out, ins[i]) {
					d.kept = true // the alias guard: fn returned its input
				}
			}
		} else {
			n.out = tensor.ShapeOnly(n.rows, n.cols)
		}
	} else {
		s := &Stream{c: c, taskID: g.taskID, now: ready, obs: obs, places: &g.places, pin: n.cell, onChip: n.chip}
		var b *Buffer
		if len(bufs) > 1 {
			b = bufs[1]
		}
		out := s.Apply(n.op, n.params, bufs[0], b)
		if err := s.Err(); err != nil {
			n.err = err
			return
		}
		n.end = s.now
		n.out = out
		switch n.result() {
		case vectorResult:
			n.vec = out.Data
		case scalarResult:
			n.scalar = out.Data[0]
		}
		if n.result() >= vectorResult && !c.Functional() {
			// Shape descriptor like every other node kind: a timing-only
			// downstream consumer must never compute on a real zero matrix.
			n.out = tensor.ShapeOnly(n.rows, n.cols)
		}
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

// sameArray reports whether a and b are views of one backing array:
// a view's data runs to the end of its parent's capacity.
func sameArray(a, b *tensor.Matrix) bool {
	ca, cb := cap(a.Data), cap(b.Data)
	return ca > 0 && cb > 0 && &a.Data[:ca][ca-1] == &b.Data[:cb][cb-1]
}

func shapeOf(m *tensor.Matrix) string {
	if m == nil {
		return "nil"
	}
	return fmt.Sprintf("%dx%d", m.Rows, m.Cols)
}
