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
		switch ns.Op {
		case OpMatMul:
			n = g.MatMul(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpMatMulFC:
			n = g.MatMulFC(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpAdd:
			n = g.Add(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpSub:
			n = g.Sub(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpMul:
			n = g.MulPair(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpTanh:
			n = g.Tanh(arg(ns.Args[0]))
		case OpReLU:
			n = g.ReLU(arg(ns.Args[0]))
		case OpConv2D:
			n = g.Conv2D(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpConv2DStrided:
			n = g.Conv2DStrided(arg(ns.Args[0]), arg(ns.Args[1]), ns.StrideR, ns.StrideC)
		case OpCrop:
			n = g.Crop(arg(ns.Args[0]), ns.R0, ns.C0, ns.Rows, ns.Cols)
		case OpExt:
			n = g.Ext(arg(ns.Args[0]), ns.Rows, ns.Cols)
		case OpMatVec:
			n = g.MatVec(arg(ns.Args[0]), arg(ns.Args[1]))
		case OpMean:
			n = g.Mean(arg(ns.Args[0]))
		case OpMax:
			n = g.MaxReduce(arg(ns.Args[0]))
		case OpHost:
			a := arg(ns.Args[0])
			rows, cols := ns.declaredHostDims(a)
			n = g.HostOp(ns.Host, rows, cols, hostCost, hostFn(ns.Host), a)
		default:
			panic("fuzzgraph: unknown op kind")
		}
		if ns.Fetch || fetchAll {
			n.Fetch()
		}
		nodes = append(nodes, n)
	}
	return g, nodes
}

// declaredHostDims computes a host node's declared output shape from
// its operand (transpose swaps).
func (ns *NodeSpec) declaredHostDims(a core.Value) (int, int) {
	type dimser interface{ Rows() int }
	var rows, cols int
	switch v := a.(type) {
	case *core.Buffer:
		rows, cols = v.Rows(), v.Cols()
	case *core.Node:
		rows, cols = v.Rows(), v.Cols()
	default:
		_ = dimser(nil)
		panic("fuzzgraph: unknown value type")
	}
	if ns.Host == "transpose" {
		return cols, rows
	}
	return rows, cols
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

	for i, n := range nodes {
		no := &out.Nodes[i]
		op := cs.Nodes[i].Op
		// Timing-only runs inspect every node through Result so a kind
		// that wrongly publishes real data (instead of a shape
		// descriptor) is caught, reduce and MatVec nodes included.
		switch {
		case rc.functional && op == OpMatVec:
			vec, err := n.Vector()
			if err != nil {
				no.Label = errLabel(err)
				continue
			}
			no.Rows, no.Cols = 1, len(vec)
			no.Bits = make([]uint32, len(vec))
			for j, v := range vec {
				no.Bits[j] = math.Float32bits(v)
			}
		case rc.functional && (op == OpMean || op == OpMax):
			v, err := n.Scalar()
			if err != nil {
				no.Label = errLabel(err)
				continue
			}
			no.Rows, no.Cols = 1, 1
			no.Bits = []uint32{math.Float32bits(v)}
		default:
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
	}
	return out
}
