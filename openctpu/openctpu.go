// Package openctpu is a literal transliteration of the OpenCtpu C API
// of the paper's Table 2 and Figure 3, for porting code written
// against the original framework. Each function keeps the C name and
// call shape (AllocDimension <-> openctpu_alloc_dimension, and so on);
// idiomatic Go code should use the root gptpu package instead, which
// this layer wraps.
//
// The Figure 3 program maps one-to-one:
//
//	matrixAD := openctpu.AllocDimension(2, size, size)
//	tensorA := ctx.CreateBuffer(matrixAD, a)
//	tensorB := ctx.CreateBuffer(matrixBD, b)
//	tensorC := openctpu.NewOutput(matrixCD)
//	ctx.Enqueue(kernel, tensorA, tensorB, tensorC)
//	ctx.Sync()
//
// with a kernel of the form
//
//	func kernel(args ...*openctpu.Buffer) {
//		openctpu.InvokeOperator(openctpu.Conv2D, openctpu.SCALE,
//			args[0], args[1], args[2])
//	}
package openctpu

import (
	"fmt"
	"sync"

	gptpu "repro"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TPUOp enumerates the operator argument of
// openctpu_invoke_operator's `enum tpu_ops op`.
type TPUOp int

const (
	Conv2D TPUOp = iota
	FullyConnected
	Add
	Sub
	Mul
	Crop
	Ext
	Mean
	Max
	Tanh
	ReLU
	// Gemm is the tpuGemm library entry (cublasGemm analogue).
	Gemm
)

// Quantization flag bits for openctpu_invoke_operator.
const (
	// SCALE selects the default scale-factor quantization (Figure 3).
	SCALE uint = 1 << iota
	// SAMPLED selects sampling-based calibration for large inputs.
	SAMPLED
)

// Dimension mirrors openctpu_dimension.
type Dimension = gptpu.Dimension

// AllocDimension mirrors openctpu_alloc_dimension: it "allocates an
// openctpu_dimension data structure that describes the dimensionality
// of data in an input/output buffer".
func AllocDimension(dimensions int, sizes ...int) *Dimension {
	return gptpu.AllocDimension(dimensions, sizes...)
}

// Buffer mirrors openctpu_buffer: an input or output binding for TPU
// kernels.
type Buffer struct {
	dim  *Dimension
	data []float32
	buf  *gptpu.Buffer // nil for output buffers until bound
	out  *tensor.Matrix
	ctx  *Context
}

// Data exposes the raw host data backing the buffer; for output
// buffers this is the result after Sync.
func (b *Buffer) Data() []float32 {
	if b.out != nil {
		return b.out.Data
	}
	return b.data
}

// Matrix exposes the result matrix of an output buffer.
func (b *Buffer) Matrix() *tensor.Matrix { return b.out }

// NewOutput creates a reserved output buffer ("the reserved data
// buffer for the product" in Figure 3's walkthrough).
func NewOutput(dim *Dimension) *Buffer {
	return &Buffer{dim: dim}
}

// Context owns the runtime connection; Init mirrors the implicit
// runtime initialization the C library performs on first use.
type Context struct {
	ctx *gptpu.Context

	mu    sync.Mutex
	tasks map[int]*gptpu.Task
	next  int
}

// Init opens the GPTPU runtime over the given number of Edge TPUs.
func Init(devices int) *Context {
	return InitWorkers(devices, 0)
}

// InitWorkers is Init with an explicit dispatch-engine worker count
// (0 = one per host core). Worker count only changes real wall-clock
// dispatch speed, never simulated results.
func InitWorkers(devices, workers int) *Context {
	return InitConfig(gptpu.Config{Devices: devices, DispatchWorkers: workers})
}

// InitConfig opens the runtime with a full gptpu.Config: the escape
// hatch for runtime knobs the C API never had, such as fault
// injection (Config.Fault), retry budgets, and a shared telemetry
// registry.
func InitConfig(cfg gptpu.Config) *Context {
	return &Context{
		ctx:   gptpu.Open(cfg),
		tasks: map[int]*gptpu.Task{},
	}
}

// Context returns the underlying gptpu context, through which ported
// code reaches the runtime's telemetry (Metrics, Stats, ServeMetrics)
// and timing surfaces without leaving the transliterated API.
func (c *Context) Context() *gptpu.Context { return c.ctx }

// Metrics exposes the runtime telemetry registry (see
// gptpu.Context.Metrics); the C API has no equivalent, but ported
// code needs the same observability as idiomatic code.
func (c *Context) Metrics() *telemetry.Registry { return c.ctx.Metrics() }

// NewGraph opens a dataflow graph on the underlying runtime: the
// whole-DAG submission path (intermediates stay on-chip, one Submit).
// The C API predates graphs, so this is an escape hatch in the style
// of Context()/Metrics(); build and submit via the gptpu.Graph API.
func (c *Context) NewGraph() *gptpu.Graph { return c.ctx.NewGraph() }

// CreateBuffer mirrors openctpu_create_buffer: "creates an input data
// buffer for TPU kernels" over raw host data.
func (c *Context) CreateBuffer(dim *Dimension, data []float32) *Buffer {
	return &Buffer{dim: dim, data: data, buf: c.ctx.CreateBuffer(dim, data), ctx: c}
}

// Kernel is the TPU kernel function signature (the C API passes
// void* argument lists; here the buffers arrive as a slice).
type Kernel func(op *Invoker, args ...*Buffer)

// Enqueue mirrors openctpu_enqueue: it submits the kernel with its
// argument buffers as a task and returns the task ID.
func (c *Context) Enqueue(kernel Kernel, args ...*Buffer) int {
	c.mu.Lock()
	c.next++
	id := c.next
	c.mu.Unlock()
	task := c.ctx.Enqueue(func(op *gptpu.Op) {
		kernel(&Invoker{op: op, ctx: c}, args...)
	})
	c.mu.Lock()
	c.tasks[id] = task
	c.mu.Unlock()
	return id
}

// Wait mirrors openctpu_wait: it blocks until the given task returns.
func (c *Context) Wait(taskID int) error {
	c.mu.Lock()
	task := c.tasks[taskID]
	c.mu.Unlock()
	if task == nil {
		return fmt.Errorf("openctpu: unknown task %d", taskID)
	}
	return task.Wait()
}

// Sync mirrors openctpu_sync: it "requires all TPU tasks to complete
// before it returns".
func (c *Context) Sync() error { return c.ctx.Sync() }

// Elapsed exposes the simulated platform time (not part of the C API;
// useful for experiments).
func (c *Context) Elapsed() string { return c.ctx.Elapsed().String() }

// Invoker carries the serial operator chain of one kernel instance.
type Invoker struct {
	op  *gptpu.Op
	ctx *Context
}

// InvokeOperator mirrors openctpu_invoke_operator: it "invokes a
// supported TPU operator (with operator arguments)". The final Buffer
// argument receives the output. Binary operators take (in, in, out);
// unary operators take (in, out).
func (iv *Invoker) InvokeOperator(op TPUOp, flags uint, args ...*Buffer) error {
	bin := func() (a, b, out *Buffer, err error) {
		if len(args) != 3 {
			return nil, nil, nil, fmt.Errorf("openctpu: operator %d needs (in, in, out), got %d args", op, len(args))
		}
		return args[0], args[1], args[2], nil
	}
	un := func() (a, out *Buffer, err error) {
		if len(args) != 2 {
			return nil, nil, fmt.Errorf("openctpu: operator %d needs (in, out), got %d args", op, len(args))
		}
		return args[0], args[1], nil
	}
	switch op {
	case Conv2D:
		a, b, out, err := bin()
		if err != nil {
			return err
		}
		out.out = iv.op.Conv2D(a.buf, b.buf)
	case Gemm:
		a, b, out, err := bin()
		if err != nil {
			return err
		}
		out.out = iv.op.Gemm(a.buf, b.buf)
	case FullyConnected:
		a, b, out, err := bin()
		if err != nil {
			return err
		}
		y := iv.op.MatVec(a.buf, b.data)
		out.out = tensor.FromSlice(1, len(y), y)
	case Add:
		a, b, out, err := bin()
		if err != nil {
			return err
		}
		out.out = iv.op.Add(a.buf, b.buf)
	case Sub:
		a, b, out, err := bin()
		if err != nil {
			return err
		}
		out.out = iv.op.Sub(a.buf, b.buf)
	case Mul:
		a, b, out, err := bin()
		if err != nil {
			return err
		}
		out.out = iv.op.Mul(a.buf, b.buf)
	case Crop:
		a, out, err := un()
		if err != nil {
			return err
		}
		out.out = iv.op.Crop(a.buf, 0, 0, out.dim.Rows, out.dim.Cols)
	case Ext:
		a, out, err := un()
		if err != nil {
			return err
		}
		out.out = iv.op.Ext(a.buf, out.dim.Rows, out.dim.Cols)
	case Mean:
		a, out, err := un()
		if err != nil {
			return err
		}
		out.out = tensor.FromSlice(1, 1, []float32{iv.op.Mean(a.buf)})
	case Max:
		a, out, err := un()
		if err != nil {
			return err
		}
		out.out = tensor.FromSlice(1, 1, []float32{iv.op.Max(a.buf)})
	case Tanh:
		a, out, err := un()
		if err != nil {
			return err
		}
		out.out = iv.op.Tanh(a.buf)
	case ReLU:
		a, out, err := un()
		if err != nil {
			return err
		}
		out.out = iv.op.ReLU(a.buf)
	default:
		return fmt.Errorf("openctpu: unsupported operator %d", op)
	}
	return iv.op.Err()
}
