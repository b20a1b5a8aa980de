package gptpu

import (
	"repro/internal/core"
	"repro/internal/edgetpu"
)

// Config selects the machine and runtime configuration; see
// core.Config for the fields. The zero value is the paper's prototype:
// one Edge TPU, functional execution, all runtime optimizations
// enabled.
type Config = core.Config

// Context is an open GPTPU machine: the programming-interface entry
// point (buffers, Enqueue/Sync, NewOp, NewGraph, metrics and the
// virtual clock). All methods are safe for concurrent use.
type Context = core.Context

// Open initializes the GPTPU runtime over the configured number of
// simulated Edge TPUs.
func Open(cfg Config) *Context { return core.NewContext(cfg) }

// Dimension describes the dimensionality of buffer data
// (openctpu_alloc_dimension).
type Dimension = core.Dimension

// AllocDimension allocates a dimension descriptor: AllocDimension(1,
// n) describes a vector, AllocDimension(2, rows, cols) a matrix.
func AllocDimension(dims int, sizes ...int) *Dimension {
	return core.AllocDimension(dims, sizes...)
}

// Buffer is an openctpu buffer bound to host raw data.
type Buffer = core.Buffer

// Op is the operator-invocation handle passed to kernel functions: the
// typed equivalent of openctpu_invoke_operator, with one method per
// operator (Gemm is tpuGemm). Operators on one Op execute serially;
// separate tasks execute in parallel.
type Op = core.Stream

// Graph is a dataflow DAG over the runtime's instructions: build
// nodes with chained operators over buffers and other nodes, then
// Submit the whole graph as one unit. Intermediates between device
// nodes stay in on-chip memory — no download, no host re-encode —
// while functional results remain bit-identical to per-op execution.
//
//	g := ctx.NewGraph()
//	out := g.MatMul(a, b).Add(c).Tanh()
//	if err := g.Submit(); err != nil { ... }
//	m, _ := out.Result()
type Graph = core.Graph

// GraphNode is the symbolic handle for one graph operation's output.
type GraphNode = core.Node

// GraphValue is anything a graph node consumes: a *Buffer or an
// upstream *GraphNode.
type GraphValue = core.Value

// Task is an enqueued kernel instance (openctpu_enqueue's return).
type Task = core.Task

// TaskObserver receives a task's dispatch-stage spans (queue wait,
// device charge, functional exec) and fault retry events; the serving
// layer threads a request's obs.Trace through here.
type TaskObserver = core.TaskObserver

// ErrClosed is the sticky error operators report when their work
// reaches the runtime after Close.
var ErrClosed = core.ErrClosed

// Typed failure classes of the fault path, re-exported so applications
// and the serving layer can classify operator errors with errors.Is.
var (
	// ErrBadInput rejects operands containing NaN or ±Inf (the
	// symmetric int8 quantization has no meaningful mapping for them).
	ErrBadInput = core.ErrBadInput
	// ErrRetryBudget marks an operator whose instructions exhausted
	// the dispatch retry budget.
	ErrRetryBudget = core.ErrRetryBudget
	// ErrTransient is the underlying injected transient-fault error.
	ErrTransient = edgetpu.ErrTransient
	// ErrNoDevices means every Edge TPU in the pool has failed.
	ErrNoDevices = core.ErrNoDevices
	// ErrUpstream marks a graph node poisoned by a failed dependency:
	// the node never executed. Unwrap with errors.Is to find the root
	// failure class.
	ErrUpstream = core.ErrUpstream
	// ErrOnChip is returned by GraphNode.Result for intermediates that
	// stayed in on-chip memory (call Fetch before Submit to download).
	ErrOnChip = core.ErrOnChip
)
