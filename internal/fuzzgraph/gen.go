// Package fuzzgraph is the differential op-graph fuzzer: a seeded,
// deterministic generator of valid random instruction DAGs over all
// eleven Table 1 instructions plus HostOp glue, executed three ways
// and byte-compared — (a) optimized kernels through core.Graph, (b)
// the frozen ops_ref reference kernels, (c) per node over the wire
// through a gptpu-serve daemon. Every case also replays at worker
// counts {1,4,8} and under a randomized fault plan, asserting
// bit-identical functional results and bit-identical virtual
// makespans for a fixed seed.
//
// The generator is valid-by-construction: node shapes always satisfy
// the shape rules of core's operator table (malformed-argument panics
// are unit-tested separately), and value magnitudes are bounded so no
// float32 result can reach ±Inf and trip the runtime's ErrBadInput
// poisoning. Anything the oracle then reports is a real divergence.
package fuzzgraph

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// OpKind enumerates the node grammar: the Table 1 instructions as
// surfaced by the Graph API, plus host glue.
type OpKind int

const (
	OpMatMul OpKind = iota
	OpMatMulFC
	OpAdd
	OpSub
	OpMul
	OpTanh
	OpReLU
	OpConv2D
	OpConv2DStrided
	OpCrop
	OpExt
	OpMatVec
	OpMean
	OpMax
	OpHost
)

var opNames = map[OpKind]string{
	OpMatMul: "matMul", OpMatMulFC: "matMulFC",
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpTanh: "tanh", OpReLU: "relu",
	OpConv2D: "conv2D", OpConv2DStrided: "conv2DStrided",
	OpCrop: "crop", OpExt: "ext",
	OpMatVec: "matVec", OpMean: "mean", OpMax: "max",
	OpHost: "host",
}

func (k OpKind) String() string { return opNames[k] }

// InputSpec describes one leaf matrix: shape, data distribution, and
// (optionally) a strided-view embedding in a larger backing so the
// runtime sees non-compact layouts.
type InputSpec struct {
	Rows, Cols int
	// When ParentRows > 0 the leaf is a (Rows,Cols) view of a
	// (ParentRows,ParentCols) backing at offset (R0,C0).
	ParentRows, ParentCols, R0, C0 int
	// Dist is the value distribution: "uniform" in [Lo,Hi], "ints"
	// (small integers, exactly representable through scale-1
	// quantization), "const" (every element = Lo), or "zero".
	Dist   string
	Lo, Hi float32
	Seed   int64
}

// NodeSpec describes one graph node. Args reference operands:
// arg >= 0 is the output of node arg, arg < 0 is input leaf (-arg-1).
type NodeSpec struct {
	Op    OpKind
	Args  []int
	Fetch bool
	// Crop window, Ext target and Conv2DStrided strides.
	core.Params
	// Host op kind: "halve", "negate", "transpose".
	Host string
}

// Case is one generated program: a replayable pure function of its
// seed. The fault plan replays deterministically too.
type Case struct {
	Seed   int64
	Inputs []InputSpec
	Nodes  []NodeSpec
	SegLen int
	Fault  fault.Config
}

// val tracks one generated value's shape and a magnitude upper bound
// (|element| never exceeds Est in exact arithmetic; quantized
// arithmetic stays within a small constant of it).
type val struct {
	ref        int // node index, or ^inputIndex encoding via neg: -idx-1
	rows, cols int
	est        float64
}

// estCap bounds value magnitudes far below float32 overflow so no
// generated case can produce ±Inf (which would poison downstream
// buffers with ErrBadInput instead of exercising the oracle).
const estCap = 1e12

// dims is the shape alphabet: edge cases (1, 2), primes, tile
// boundaries (64, 128) and just-past-tile sizes.
var dimAlphabet = []int{1, 2, 3, 5, 8, 13, 17, 24, 31, 48, 64, 65}

func pickDim(rng *rand.Rand) int {
	if rng.Intn(12) == 0 { // occasionally cross the 128 arith tile
		return 128 + rng.Intn(23)
	}
	return dimAlphabet[rng.Intn(len(dimAlphabet))]
}

// generate builds the case for a seed. The same seed always yields
// the same case, including its synthesized-on-demand inputs and fault
// plan.
func generate(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	cs := &Case{Seed: seed}

	var vals []val
	addInput := func(rows, cols int) int {
		idx := len(cs.Inputs)
		in := InputSpec{Rows: rows, Cols: cols, Seed: seed*1000003 + int64(idx)}
		if rng.Intn(3) == 0 { // strided view of a larger backing
			in.ParentRows = rows + 1 + rng.Intn(3)
			in.ParentCols = cols + 1 + rng.Intn(5)
			in.R0 = rng.Intn(in.ParentRows - rows + 1)
			in.C0 = rng.Intn(in.ParentCols - cols + 1)
		}
		var est float64
		switch rng.Intn(8) {
		case 0:
			in.Dist = "ints"
			est = 9
		case 1:
			in.Dist = "const"
			in.Lo = float32(rng.Intn(19)-9) / 2
			est = float64(in.Lo)
			if est < 0 {
				est = -est
			}
		case 2:
			in.Dist = "zero"
			est = 0
		default:
			in.Dist = "uniform"
			scale := []float32{0.5, 2, 30, 500}[rng.Intn(4)]
			in.Lo, in.Hi = -scale, scale
			est = float64(scale)
		}
		cs.Inputs = append(cs.Inputs, in)
		vals = append(vals, val{ref: -idx - 1, rows: rows, cols: cols, est: est})
		return len(vals) - 1
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		addInput(pickDim(rng), pickDim(rng))
	}

	pickVal := func() int { return rng.Intn(len(vals)) }
	// sameShape returns an existing value with the wanted shape (bias
	// toward reuse), or synthesizes a fresh leaf.
	operand := func(rows, cols int) int {
		if rng.Intn(10) < 7 {
			start := rng.Intn(len(vals))
			for i := 0; i < len(vals); i++ {
				v := (start + i) % len(vals)
				if vals[v].rows == rows && vals[v].cols == cols {
					return v
				}
			}
		}
		return addInput(rows, cols)
	}

	addNode := func(ns NodeSpec, rows, cols int, est float64) {
		if est > estCap {
			est = estCap // operands are clamped before use; keep bookkeeping consistent
		}
		cs.Nodes = append(cs.Nodes, ns)
		vals = append(vals, val{ref: len(cs.Nodes) - 1, rows: rows, cols: cols, est: est})
	}
	ref := func(v int) int { return vals[v].ref }

	// squash replaces an over-magnitude candidate with tanh/relu on a,
	// which is always feasible and caps est at min(est, 1).
	squash := func(a int) {
		if rng.Intn(2) == 0 {
			addNode(NodeSpec{Op: OpTanh, Args: []int{ref(a)}}, vals[a].rows, vals[a].cols, 1)
		} else {
			addNode(NodeSpec{Op: OpReLU, Args: []int{ref(a)}}, vals[a].rows, vals[a].cols, vals[a].est)
		}
	}

	nNodes := 3 + rng.Intn(9)
	for len(cs.Nodes) < nNodes {
		op := []OpKind{
			OpMatMul, OpMatMul, OpMatMulFC, OpAdd, OpAdd, OpSub, OpMul, OpMul,
			OpTanh, OpReLU, OpConv2D, OpConv2D, OpConv2DStrided,
			OpCrop, OpExt, OpMatVec, OpMean, OpMax, OpHost, OpHost,
		}[rng.Intn(20)]
		a := pickVal()
		av := vals[a]
		ns := NodeSpec{Op: op, Args: []int{ref(a)}}
		rows, cols, est := av.rows, av.cols, av.est
		second := func(rows, cols int) *val {
			b := operand(rows, cols)
			ns.Args = append(ns.Args, ref(b))
			return &vals[b]
		}
		switch op {
		case OpMatMul, OpMatMulFC:
			b := second(av.cols, pickDim(rng))
			cols, est = b.cols, av.est*b.est*float64(av.cols)
		case OpAdd, OpSub:
			est = av.est + second(av.rows, av.cols).est
		case OpMul:
			est = av.est * second(av.rows, av.cols).est
		case OpTanh:
			est = 1
		case OpConv2D, OpConv2DStrided:
			kr := 1 + rng.Intn(min(4, av.rows))
			kc := 1 + rng.Intn(min(4, av.cols))
			est = av.est * second(kr, kc).est * float64(kr*kc)
			if op == OpConv2DStrided && est <= estCap { // a squashed candidate draws no strides
				ns.StrideR, ns.StrideC = 1+rng.Intn(3), 1+rng.Intn(3)
				rows = (rows + ns.StrideR - 1) / ns.StrideR
				cols = (cols + ns.StrideC - 1) / ns.StrideC
			}
		case OpCrop:
			rows = 1 + rng.Intn(av.rows)
			cols = 1 + rng.Intn(av.cols)
			ns.R0, ns.C0 = rng.Intn(av.rows-rows+1), rng.Intn(av.cols-cols+1)
			ns.Rows, ns.Cols = rows, cols
		case OpExt:
			rows = av.rows + rng.Intn(17)
			cols = av.cols + rng.Intn(17)
			ns.Rows, ns.Cols = rows, cols
		case OpMatVec:
			est = av.est * second(1, av.cols).est * float64(av.cols)
			rows, cols = 1, av.rows
		case OpMean, OpMax:
			rows, cols = 1, 1
		case OpHost:
			ns.Host = []string{"halve", "negate", "transpose"}[rng.Intn(3)]
			if ns.Host == "transpose" {
				rows, cols = cols, rows
			}
		}
		if est > estCap {
			squash(a)
			continue
		}
		addNode(ns, rows, cols, est)
	}

	for i := range cs.Nodes {
		if rng.Intn(3) == 0 {
			cs.Nodes[i].Fetch = true
		}
	}
	if rng.Intn(5) < 2 {
		cs.SegLen = 1 + rng.Intn(3)
	}

	// Randomized fault plan: a transient probability low enough that
	// the default retry budget of 8 cannot plausibly exhaust, one
	// device kill (of the pool of 4), an optional revive, and an
	// optional degraded link. Deterministic per seed.
	cs.Fault = fault.Config{
		Seed:          seed ^ 0x1e3779b97f4a7c15,
		TransientProb: 0.01 + rng.Float64()*0.05,
		Kill:          []fault.Event{{Device: rng.Intn(4), At: timing.Duration(20+rng.Intn(180)) * 1000}},
	}
	if rng.Intn(2) == 0 {
		cs.Fault.Revive = []fault.Event{{
			Device: cs.Fault.Kill[0].Device,
			At:     cs.Fault.Kill[0].At + timing.Duration(50+rng.Intn(150))*1000,
		}}
	}
	if rng.Intn(3) == 0 {
		cs.Fault.LinkScale = map[int]float64{rng.Intn(4): 1.5 + rng.Float64()}
	}
	return cs
}

// String renders the case as a replayable program listing.
func (c *Case) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d inputs, %d nodes, segLen=%d, fault{p=%.3f kill=d%d@%v",
		c.Seed, len(c.Inputs), len(c.Nodes), c.SegLen,
		c.Fault.TransientProb, c.Fault.Kill[0].Device, c.Fault.Kill[0].At)
	if len(c.Fault.Revive) > 0 {
		fmt.Fprintf(&b, " revive@%v", c.Fault.Revive[0].At)
	}
	b.WriteString("}\n")
	for i, in := range c.Inputs {
		fmt.Fprintf(&b, "  in%d = %s(%dx%d", i, in.Dist, in.Rows, in.Cols)
		switch in.Dist {
		case "uniform":
			fmt.Fprintf(&b, ", [%g,%g]", in.Lo, in.Hi)
		case "const":
			fmt.Fprintf(&b, ", %g", in.Lo)
		}
		b.WriteString(")")
		if in.ParentRows > 0 {
			fmt.Fprintf(&b, " view of %dx%d @(%d,%d)", in.ParentRows, in.ParentCols, in.R0, in.C0)
		}
		b.WriteString("\n")
	}
	for i, n := range c.Nodes {
		fmt.Fprintf(&b, "  n%d = %s(", i, n.Op)
		for j, a := range n.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			if a < 0 {
				fmt.Fprintf(&b, "in%d", -a-1)
			} else {
				fmt.Fprintf(&b, "n%d", a)
			}
		}
		switch n.Op {
		case OpCrop:
			fmt.Fprintf(&b, ", @(%d,%d)+%dx%d", n.R0, n.C0, n.Rows, n.Cols)
		case OpExt:
			fmt.Fprintf(&b, ", ->%dx%d", n.Rows, n.Cols)
		case OpConv2DStrided:
			fmt.Fprintf(&b, ", stride(%d,%d)", n.StrideR, n.StrideC)
		case OpHost:
			fmt.Fprintf(&b, ", %q", n.Host)
		}
		b.WriteString(")")
		if n.Fetch {
			b.WriteString(" fetch")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// materialize builds the leaf matrices, each deterministic from its
// own spec seed (independent of how many inputs exist).
func (c *Case) materialize() []*tensor.Matrix {
	ins := make([]*tensor.Matrix, len(c.Inputs))
	for i, sp := range c.Inputs {
		ins[i] = sp.materialize()
	}
	return ins
}

func (sp *InputSpec) materialize() *tensor.Matrix {
	rng := rand.New(rand.NewSource(sp.Seed))
	fill := func(m *tensor.Matrix) {
		for r := 0; r < m.Rows; r++ {
			for cc := 0; cc < m.Cols; cc++ {
				var v float32
				switch sp.Dist {
				case "uniform":
					v = sp.Lo + rng.Float32()*(sp.Hi-sp.Lo)
				case "ints":
					v = float32(rng.Intn(19) - 9)
				case "const":
					v = sp.Lo
				case "zero":
					v = 0
				}
				m.Set(r, cc, v)
			}
		}
	}
	if sp.ParentRows > 0 {
		parent := tensor.New(sp.ParentRows, sp.ParentCols)
		fill(parent)
		return parent.View(sp.R0, sp.C0, sp.Rows, sp.Cols)
	}
	m := tensor.New(sp.Rows, sp.Cols)
	fill(m)
	return m
}
