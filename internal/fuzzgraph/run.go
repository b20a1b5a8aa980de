package fuzzgraph

import (
	"errors"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// runCfg selects one execution configuration of a case.
type runCfg struct {
	workers    int
	ref        bool // frozen ops_ref kernels instead of the optimized table
	functional bool
	fetchAll   bool // force host materialization of every node
	fc         *fault.Config
}

// nodeOut is one node's observable outcome, normalized for byte
// comparison across configurations.
type nodeOut struct {
	Label      string // normalized error label, "" on success
	OnChip     bool
	ShapeOnly  bool
	Rows, Cols int
	Bits       []uint32 // float32 bit patterns, row-major; scalar/vector flattened
}

// outcome is one full execution of a case.
type outcome struct {
	SubmitLabel string
	Makespan    timing.Duration
	Nodes       []nodeOut
}

// hostCost is the fixed virtual CPU charge of every generated HostOp.
const hostCost = 2 * timing.Duration(1000) // 2µs

// hostFn returns the deterministic closure for a generated host node.
func hostFn(kind string) func(in []*tensor.Matrix) *tensor.Matrix {
	return func(in []*tensor.Matrix) *tensor.Matrix {
		m := in[0]
		switch kind {
		case "transpose":
			return m.Transpose()
		case "halve", "negate":
			f := float32(0.5)
			if kind == "negate" {
				f = -1
			}
			out := tensor.New(m.Rows, m.Cols)
			for r := 0; r < m.Rows; r++ {
				for c := 0; c < m.Cols; c++ {
					out.Set(r, c, m.At(r, c)*f)
				}
			}
			return out
		}
		panic("fuzzgraph: unknown host op " + kind)
	}
}

// tableOps maps every node kind but host glue onto core's operator
// table: buildGraph and the wire replay take their operand counts and
// calls from the table.
var tableOps = map[OpKind]core.Operator{
	OpMatMul: core.OpGemm, OpMatMulFC: core.OpGemmFC,
	OpAdd: core.OpAdd, OpSub: core.OpSub, OpMul: core.OpMul,
	OpConv2D: core.OpConv2D, OpTanh: core.OpTanh, OpReLU: core.OpReLU,
	OpMean: core.OpMean, OpMax: core.OpMax,
	OpConv2DStrided: core.OpConv2DStrided, OpCrop: core.OpCrop, OpExt: core.OpExt,
	OpMatVec: core.OpMatVec,
}

// buildGraph instantiates the case's DAG against a context.
func buildGraph(ctx *core.Context, cs *Case, ins []*tensor.Matrix, fetchAll bool) (*core.Graph, []*core.Node) {
	g := ctx.NewGraph()
	if cs.SegLen > 0 {
		g.SegmentChains(cs.SegLen)
	}
	leaves := make([]*core.Buffer, len(ins))
	for i, m := range ins {
		leaves[i] = ctx.CreateMatrixBuffer(m)
	}
	nodes := make([]*core.Node, 0, len(cs.Nodes))
	arg := func(a int) core.Value {
		if a < 0 {
			return leaves[-a-1]
		}
		return nodes[a]
	}
	for _, ns := range cs.Nodes {
		var n *core.Node
		if ns.Op == OpHost {
			a := arg(ns.Args[0])
			rows, cols := ns.declaredHostDims(a)
			n = g.HostOp(ns.Host, rows, cols, hostCost, hostFn(ns.Host), a)
		} else {
			top, ok := tableOps[ns.Op]
			if !ok {
				panic("fuzzgraph: unknown op kind")
			}
			args := make([]core.Value, top.Arity())
			for i := range args {
				args[i] = arg(ns.Args[i])
			}
			n = g.Apply(top, ns.Params, args...)
		}
		if ns.Fetch || fetchAll {
			n.Fetch()
		}
		// The CPU reads a host node's operand and MatVec's vector from
		// host memory, so those nodes materialize whatever is fetched;
		// fetching keeps them past their last consumer for inspection
		// without moving any placement.
		for i, a := range ns.Args {
			if a >= 0 && (ns.Op == OpHost || ns.Op == OpMatVec && i == 1) {
				nodes[a].Fetch()
			}
		}
		nodes = append(nodes, n)
	}
	return g, nodes
}

// declaredHostDims computes a host node's declared output shape from
// its operand (transpose swaps).
func (ns *NodeSpec) declaredHostDims(a core.Value) (int, int) {
	v := a.(interface {
		Rows() int
		Cols() int
	})
	if ns.Host == "transpose" {
		return v.Cols(), v.Rows()
	}
	return v.Rows(), v.Cols()
}

// errLabel normalizes an error into the sentinel chain it wraps, so
// outcomes compare across configurations without relying on message
// text that embeds run-specific details.
func errLabel(err error) string {
	if err == nil {
		return ""
	}
	var parts []string
	for _, s := range []struct {
		e error
		n string
	}{
		{core.ErrUpstream, "upstream"},
		{core.ErrBadInput, "bad-input"},
		{core.ErrRetryBudget, "retry-budget"},
		{core.ErrNoDevices, "no-devices"},
		{core.ErrClosed, "closed"},
	} {
		if errors.Is(err, s.e) {
			parts = append(parts, s.n)
		}
	}
	if len(parts) == 0 {
		return "error"
	}
	return strings.Join(parts, "+")
}

// matrixBits flattens a matrix into float32 bit patterns, row-major.
func matrixBits(m *tensor.Matrix) []uint32 {
	bits := make([]uint32, 0, m.Rows*m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			bits = append(bits, math.Float32bits(m.At(r, c)))
		}
	}
	return bits
}

// runCase executes the case once under a configuration and collects
// the normalized outcome. The input matrices are shared across runs
// (they are never mutated); buffers are fresh per run.
func runCase(cs *Case, ins []*tensor.Matrix, rc runCfg) *outcome {
	ctx := core.NewContext(core.Config{
		Devices:         4,
		DispatchWorkers: rc.workers,
		TimingOnly:      !rc.functional,
		RefKernels:      rc.ref,
		Fault:           rc.fc,
	})
	defer ctx.Close()

	g, nodes := buildGraph(ctx, cs, ins, rc.fetchAll)
	out := &outcome{SubmitLabel: errLabel(g.Submit()), Nodes: make([]nodeOut, len(nodes))}
	out.Makespan = ctx.Elapsed()

	// Every node is inspected through Result, reduce and MatVec nodes
	// included (their results are 1×1 and 1×N matrices), so a timing-only
	// kind that wrongly publishes real data instead of a shape
	// descriptor is caught.
	for i, n := range nodes {
		no := &out.Nodes[i]
		m, err := n.Result()
		if errors.Is(err, core.ErrOnChip) {
			no.OnChip = true
			continue
		}
		if err != nil {
			no.Label = errLabel(err)
			continue
		}
		no.Rows, no.Cols = m.Rows, m.Cols
		if m.IsShapeOnly() {
			no.ShapeOnly = true
			continue
		}
		no.Bits = matrixBits(m)
	}
	return out
}
