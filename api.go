package gptpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/edgetpu"
	"repro/internal/energy"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Config selects the machine and runtime configuration; see
// core.Config for the fields. The zero value is the paper's prototype:
// one Edge TPU, functional execution, all runtime optimizations
// enabled.
type Config = core.Config

// Context is an open GPTPU machine: the programming-interface entry
// point. All methods are safe for concurrent use.
type Context struct {
	c *core.Context
}

// Open initializes the GPTPU runtime over the configured number of
// simulated Edge TPUs.
func Open(cfg Config) *Context { return &Context{c: core.NewContext(cfg)} }

// Core exposes the underlying runtime for benchmarks and tests that
// need device-pool or timeline access.
func (x *Context) Core() *core.Context { return x.c }

// Dimension describes the dimensionality of buffer data
// (openctpu_alloc_dimension). Only 1- and 2-dimensional data is
// supported, matching the operators of Table 1.
type Dimension struct {
	Rows, Cols int
}

// AllocDimension allocates a dimension descriptor: AllocDimension(1,
// n) describes a vector, AllocDimension(2, rows, cols) a matrix.
func AllocDimension(dims int, sizes ...int) *Dimension {
	switch dims {
	case 1:
		if len(sizes) != 1 {
			panic(fmt.Sprintf("gptpu: AllocDimension(1) needs 1 size, got %d", len(sizes)))
		}
		return &Dimension{Rows: 1, Cols: sizes[0]}
	case 2:
		if len(sizes) != 2 {
			panic(fmt.Sprintf("gptpu: AllocDimension(2) needs 2 sizes, got %d", len(sizes)))
		}
		return &Dimension{Rows: sizes[0], Cols: sizes[1]}
	default:
		panic(fmt.Sprintf("gptpu: unsupported dimensionality %d", dims))
	}
}

// Buffer is an openctpu buffer bound to host raw data.
type Buffer = core.Buffer

// CreateBuffer creates an input/output buffer for TPU kernels over
// the raw data (openctpu_create_buffer). The data is wrapped, not
// copied; it must hold at least Rows*Cols elements.
func (x *Context) CreateBuffer(d *Dimension, data []float32) *Buffer {
	return x.c.NewBuffer(tensor.FromSlice(d.Rows, d.Cols, data))
}

// CreateMatrixBuffer creates a buffer directly over a matrix.
func (x *Context) CreateMatrixBuffer(m *tensor.Matrix) *Buffer {
	return x.c.NewBuffer(m)
}

// InvalidateBuffer drops cached device state after the host mutated
// the buffer's raw data.
func (x *Context) InvalidateBuffer(b *Buffer) { x.c.Invalidate(b) }

// Op is the operator-invocation handle passed to kernel functions: the
// typed equivalent of openctpu_invoke_operator. Operators on one Op
// execute serially; separate tasks execute in parallel.
type Op struct {
	s *core.Stream
}

// Err returns the first operator error on this handle.
func (o *Op) Err() error { return o.s.Err() }

// Gemm invokes tpuGemm, the optimized conv2D-based GEMM library
// function of section 7.1 (GPTPU's cublasGemm analogue).
func (o *Op) Gemm(a, b *Buffer) *tensor.Matrix { return o.s.MatMul(a, b) }

// GemmFC is the FullyConnected-based GEMM of section 7.1.1 (slower;
// kept for the Figure 6 comparison).
func (o *Op) GemmFC(a, b *Buffer) *tensor.Matrix { return o.s.MatMulFC(a, b) }

// GemmPrecise is the dual-portion high-precision GEMM (~16-bit
// effective input precision at ~3x the device passes), the explicit
// accuracy/latency trade of the paper's section 10 discussion.
func (o *Op) GemmPrecise(a, b *Buffer) *tensor.Matrix { return o.s.MatMulPrecise(a, b) }

// MatVec multiplies a matrix by a vector with FullyConnected.
func (o *Op) MatVec(a *Buffer, x []float32) []float32 { return o.s.MatVec(a, x) }

// MatVecPrecise is the dual-portion MatVec (~16-bit effective input
// precision at three FullyConnected passes). The matrix's split is
// built on first use and kept on the buffer for the next call.
func (o *Op) MatVecPrecise(a *Buffer, x []float32) []float32 { return o.s.MatVecPrecise(a, x) }

// Add performs pair-wise addition.
func (o *Op) Add(a, b *Buffer) *tensor.Matrix { return o.s.Add(a, b) }

// Sub performs pair-wise subtraction.
func (o *Op) Sub(a, b *Buffer) *tensor.Matrix { return o.s.Sub(a, b) }

// Mul performs pair-wise multiplication.
func (o *Op) Mul(a, b *Buffer) *tensor.Matrix { return o.s.MulPair(a, b) }

// Conv2D convolves the input with a kernel (stride 1, zero padding).
func (o *Op) Conv2D(a, kernel *Buffer) *tensor.Matrix { return o.s.Conv2D(a, kernel) }

// Conv2DStrided convolves with an explicit stride: the Figure 5
// grouping semantics that tpuGemm builds on, producing the condensed
// ceil(R/sr) x ceil(C/sc) output.
func (o *Op) Conv2DStrided(a, kernel *Buffer, strideR, strideC int) *tensor.Matrix {
	return o.s.Conv2DStrided(a, kernel, strideR, strideC)
}

// Tanh applies tanh element-wise.
func (o *Op) Tanh(a *Buffer) *tensor.Matrix { return o.s.Tanh(a) }

// ReLU applies ReLU element-wise.
func (o *Op) ReLU(a *Buffer) *tensor.Matrix { return o.s.ReLU(a) }

// Mean reduces the matrix to its average value.
func (o *Op) Mean(a *Buffer) float32 { return o.s.Mean(a) }

// Max reduces the matrix to its maximum value.
func (o *Op) Max(a *Buffer) float32 { return o.s.MaxReduce(a) }

// Crop extracts a sub-matrix.
func (o *Op) Crop(a *Buffer, r0, c0, rows, cols int) *tensor.Matrix {
	return o.s.Crop(a, r0, c0, rows, cols)
}

// Ext zero-pads to the target dimensionality.
func (o *Op) Ext(a *Buffer, rows, cols int) *tensor.Matrix { return o.s.Ext(a, rows, cols) }

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

// NewGraph opens an empty dataflow graph on this context.
func (x *Context) NewGraph() *Graph { return x.c.NewGraph() }

// Task is an enqueued kernel instance (openctpu_enqueue's return).
type Task = core.Task

// Enqueue submits a kernel function as a TPU task; tasks run out of
// order in parallel.
func (x *Context) Enqueue(kernel func(op *Op)) *Task {
	return x.c.Enqueue(func(s *core.Stream) { kernel(&Op{s: s}) })
}

// TaskObserver receives a task's dispatch-stage spans (queue wait,
// device charge, functional exec) and fault retry events; the serving
// layer threads a request's obs.Trace through here.
type TaskObserver = core.TaskObserver

// EnqueueObserved is Enqueue with a per-task observer (nil behaves
// like Enqueue).
func (x *Context) EnqueueObserved(obs TaskObserver, kernel func(op *Op)) *Task {
	return x.c.EnqueueObserved(obs, func(s *core.Stream) { kernel(&Op{s: s}) })
}

// Sync blocks until all enqueued tasks complete (openctpu_sync).
func (x *Context) Sync() error { return x.c.Sync() }

// NewOp opens a serial operator chain outside any task, for
// straight-line host code.
func (x *Context) NewOp() *Op { return &Op{s: x.c.NewStream()} }

// Metrics returns the runtime telemetry registry: scheduler counters
// (affinity hits, FCFS fallbacks, device-lost retries), Tensorizer
// cache and encode statistics, per-instruction and per-operator
// virtual-latency histograms, and per-device transfer/residency
// counters. Snapshot it with WritePrometheus or WriteJSON, or expose
// it over HTTP with ServeMetrics.
func (x *Context) Metrics() *telemetry.Registry { return x.c.Metrics() }

// Stats returns the scheduler statistics summary, a thin view over
// Metrics kept for convenience and backward compatibility.
func (x *Context) Stats() core.Stats { return x.c.Stats() }

// ServeMetrics starts an HTTP endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0") exposing this context's metrics: Prometheus text
// format at /metrics, expvar-style JSON at /metrics.json. Close the
// returned server when done.
func (x *Context) ServeMetrics(addr string) (*telemetry.Server, error) {
	return telemetry.Serve(addr, x.c.Metrics())
}

// Elapsed returns the virtual time consumed so far.
func (x *Context) Elapsed() timing.Duration { return x.c.Elapsed() }

// Energy returns the platform energy accounting so far.
func (x *Context) Energy() energy.Report { return x.c.Energy() }

// Reset rewinds virtual time and scheduler state. It quiesces the
// dispatch engine first; do not race it against still-enqueued tasks.
func (x *Context) Reset() { x.c.Reset() }

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

// Close retires the dispatch engine's worker goroutines. Optional —
// an idle context holds no goroutines — but gives tools a
// deterministic teardown point. Close is idempotent and safe to call
// concurrently with in-flight work: already-submitted instructions
// finish before it returns, and operators that submit afterwards fail
// with ErrClosed.
func (x *Context) Close() { x.c.Close() }
