// Package openctpu is a literal transliteration of the OpenCtpu C API
// of the paper's Table 2 and Figure 3, for porting code written
// against the original framework. Each function keeps the C name and
// call shape (AllocDimension <-> openctpu_alloc_dimension, and so on);
// idiomatic Go code should use the root gptpu package instead, whose
// Context this layer wraps.
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
	"maps"
	"sync"

	gptpu "repro"
	"repro/internal/core"
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

// Quantization flag bits for openctpu_invoke_operator, mirroring the
// paper's API enum; InvokeOperator ignores them.
const (
	// SCALE names the scale-factor quantization (Figure 3), the one the
	// runtime implements.
	SCALE uint = 1 << iota
	// SAMPLED names sampling-based calibration for large inputs.
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

// matrixOps maps every operator of the C API onto the runtime's
// operator table, which gives each its operand count and its call.
var matrixOps = map[TPUOp]core.Operator{
	Conv2D: core.OpConv2D, Gemm: core.OpGemm, FullyConnected: core.OpMatVec,
	Add: core.OpAdd, Sub: core.OpSub, Mul: core.OpMul,
	Crop: core.OpCrop, Ext: core.OpExt,
	Mean: core.OpMean, Max: core.OpMax,
	Tanh: core.OpTanh, ReLU: core.OpReLU,
}

// Context owns the runtime connection; Init mirrors the implicit
// runtime initialization the C library performs on first use.
type Context struct {
	ctx *gptpu.Context

	mu     sync.Mutex
	tasks  map[int]*gptpu.Task // enqueued, neither waited for nor synced
	next   int                 // the last task ID handed out
	synced int                 // every task up to this ID that Sync forgot succeeded
}

// Init opens the GPTPU runtime over the given number of Edge TPUs.
func Init(devices int) *Context {
	return InitConfig(gptpu.Config{Devices: devices})
}

// InitConfig opens the runtime with a full gptpu.Config: the escape
// hatch for runtime knobs the C API never had, such as dispatch
// workers, fault injection (Config.Fault), retry budgets, and a shared
// telemetry registry.
func InitConfig(cfg gptpu.Config) *Context {
	return &Context{
		ctx:   gptpu.Open(cfg),
		tasks: map[int]*gptpu.Task{},
	}
}

// Context returns the underlying gptpu context: the escape hatch
// through which ported code reaches what the C API never had —
// telemetry (Metrics, Stats), dataflow graphs (NewGraph) and the
// virtual clock — without leaving the transliterated API.
func (c *Context) Context() *gptpu.Context { return c.ctx }

// CreateBuffer mirrors openctpu_create_buffer: "creates an input data
// buffer for TPU kernels" over raw host data.
func (c *Context) CreateBuffer(dim *Dimension, data []float32) *Buffer {
	return &Buffer{dim: dim, data: data, buf: c.ctx.CreateBuffer(dim, data)}
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
		kernel(&Invoker{op: op}, args...)
	})
	c.mu.Lock()
	c.tasks[id] = task
	c.mu.Unlock()
	return id
}

// Wait mirrors openctpu_wait: it blocks until the given task returns
// and reports its error. Wait forgets the task, so the context keeps no
// record of it: a second Wait on the same ID is the unknown-task error,
// like an ID never handed out — unless a Sync has run since the task
// was enqueued. Sync forgets the tasks that succeeded, and a Wait on an
// ID a Sync covered that is no longer kept returns nil at once.
func (c *Context) Wait(taskID int) error {
	c.mu.Lock()
	task, synced := c.tasks[taskID], taskID > 0 && taskID <= c.synced
	delete(c.tasks, taskID)
	c.mu.Unlock()
	switch {
	case task != nil:
		return task.Wait()
	case synced:
		return nil
	}
	return fmt.Errorf("openctpu: unknown task %d", taskID)
}

// Sync mirrors openctpu_sync: it "requires all TPU tasks to complete
// before it returns", and returns the first error any of them reported.
// It then forgets every task enqueued before it that succeeded; a
// failed one stays until a Wait collects its error.
func (c *Context) Sync() error {
	c.mu.Lock()
	upTo, covered := c.next, maps.Clone(c.tasks)
	c.mu.Unlock()
	err := c.ctx.Sync()
	for id, task := range covered {
		if task.Wait() != nil {
			delete(covered, id) // kept until a Wait collects its error
		}
	}
	c.mu.Lock()
	for id := range covered {
		delete(c.tasks, id)
	}
	c.synced = max(c.synced, upTo)
	c.mu.Unlock()
	return err
}

// Elapsed exposes the simulated platform time (not part of the C API;
// useful for experiments).
func (c *Context) Elapsed() string { return c.ctx.Elapsed().String() }

// Invoker carries the serial operator chain of one kernel instance.
type Invoker struct {
	op *gptpu.Op
}

// InvokeOperator mirrors openctpu_invoke_operator: it "invokes a
// supported TPU operator (with operator arguments)". The final Buffer
// argument receives the output. Binary operators take (in, in, out);
// unary operators take (in, out). Crop keeps the output dimension's
// top-left window of its input and Ext pads its input to it. flags is
// taken only to mirror the paper's API and is ignored: SCALE (section
// 6.2.2, Eqs. 4-8) is the one calibration the runtime implements,
// whatever the caller passes.
func (iv *Invoker) InvokeOperator(op TPUOp, flags uint, args ...*Buffer) error {
	mop, ok := matrixOps[op]
	if !ok {
		return fmt.Errorf("openctpu: unsupported operator %d", op)
	}
	if len(args) != mop.Arity()+1 {
		return fmt.Errorf("openctpu: operator %d takes %d inputs and an output, got %d buffers", op, mop.Arity(), len(args))
	}
	var b *gptpu.Buffer
	if mop.Arity() == 2 {
		b = args[1].buf
	}
	out := args[len(args)-1]
	out.out = iv.op.Apply(mop, core.Params{Rows: out.dim.Rows, Cols: out.dim.Cols}, args[0].buf, b)
	return iv.op.Err()
}
