// Package core implements the paper's primary contribution: the GPTPU
// runtime system (section 6). It contains the front-end task operation
// queue (OPQ) and back-end instruction queue (IQ) of Figure 4, the
// locality-aware instruction scheduler of section 6.1, and the
// Tensorizer of section 6.2, which rewrites programmer-visible
// operators into Edge TPU instructions at their optimal tile shapes,
// quantizes and calibrates data, and encodes inputs into the
// reverse-engineered model format.
//
// Execution is dual: every operator produces a functional result
// computed with bit-exact int8 device arithmetic (optional, see
// Config.TimingOnly) and charges virtual time on the simulated
// machine's resource timelines. Performance experiments at
// paper-scale inputs run timing-only; accuracy experiments run
// functionally at feasible sizes.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/edgetpu"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Config selects the machine and runtime configuration. The zero value
// is the paper's prototype: one Edge TPU, functional execution, the
// section 6.1 locality rule and the Tensorizer's model path.
type Config struct {
	// Devices is the number of attached Edge TPUs (the prototype
	// machine hosts up to 8, paper section 3.1). 0 means 1.
	Devices int
	// TimingOnly disables functional execution: operators charge
	// virtual time but compute no results. Used to run the paper-scale
	// performance sweeps in reasonable wall time.
	TimingOnly bool
	// DisableLocality turns off the section 6.1 rule that pins
	// instructions sharing input, quantization flags and task ID to the
	// device already holding the input (pure FCFS, an ablation).
	DisableLocality bool
	// UseTFLiteCompiler charges the Python TFLite compiler latency
	// (2.7 s per 2Kx2K model) instead of the reverse-engineered
	// Tensorizer encoder's 1.8 ms, the section 6.2.3 ablation.
	UseTFLiteCompiler bool
	// OnDeviceReduce aggregates matrix-wise operator results with a
	// second round of device instructions instead of CPU code, the
	// alternative section 6.2.1 considers and rejects.
	OnDeviceReduce bool
	// DispatchWorkers is the worker count of the back-end IQ dispatch
	// engine (0 = one worker per host core, GOMAXPROCS). Workers run
	// functional closures wall-clock-parallel; virtual-time results
	// are identical for every worker count, because timeline charging
	// always happens in instruction-queue order.
	DispatchWorkers int
	// Params overrides the calibrated cost model (nil = Default).
	Params *timing.Params
	// Metrics is the telemetry registry the runtime records into
	// (nil = a fresh private registry, exposed via Context.Metrics).
	// Sharing one registry across contexts accumulates their counters.
	Metrics *telemetry.Registry
	// Trace enables event recording on the context's timeline so the
	// run can be exported as a Chrome trace (see internal/trace).
	Trace bool
	// Fault is the deterministic fault-injection plan (nil = no
	// injected faults). Each context seeds its own injector from the
	// plan.
	Fault *fault.Config
	// RetryBudget bounds how many times the dispatch engine re-enters
	// device assignment for one instruction after a transient fault or
	// mid-flight device loss (0 = 8). Exhaustion fails the instruction
	// with ErrRetryBudget.
	RetryBudget int
	// RefKernels executes every functional instruction body on the
	// frozen naive reference kernels (edgetpu.Ref) instead of the
	// optimized substrate (edgetpu.Fast). Results and virtual time
	// must be bit-identical either way — the differential fuzzer runs
	// whole instruction DAGs under both tables and byte-compares.
	RefKernels bool
}

// Context is one GPTPU machine instance, published as gptpu.Context: a
// host CPU, a pool of Edge TPUs behind PCIe switch cards, and the
// runtime state (buffer identities, recycled affinity tables, task
// queue).
type Context struct {
	cfg    Config
	params *timing.Params
	met    *runtimeMetrics
	kern   *edgetpu.KernelTable

	TL   *timing.Timeline
	Pool *edgetpu.Pool
	// Host is the CPU core executing the GPTPU runtime: quantization,
	// model encoding, and result aggregation (the paper's runtime
	// "still relies on the CPU", section 8.1).
	Host *timing.Resource

	keySeq  atomic.Uint64
	taskSeq atomic.Int64

	engOnce sync.Once
	eng     *engine

	plans sync.Pool // *plan: instruction-plan storage, recycled by collect

	// free is the list Release fills and Matrix draws from, at most
	// maxFreeResults compact float32 matrices the caller handed back.
	freeMu sync.Mutex
	free   []*tensor.Matrix

	mu sync.Mutex
	// freeTabs holds cleared affinity tables of finished tasks and
	// graphs (see placements) for the next owner's first placement, so
	// a daemon running one task per request does not build a map per
	// request. resets counts Reset calls: a table filled before the
	// last one is stale.
	freeTabs []map[affinityKey]int
	resets   uint64
	rr       int
	// inflight is the OPQ: the tasks whose kernels have not returned.
	// syncErr is the first error a retired task reported since the last
	// Sync.
	inflight map[*Task]struct{}
	syncErr  error
}

type affinityKey struct {
	input uint64
	flags uint32
}

// NewContext builds a GPTPU machine. A negative device count panics.
func NewContext(cfg Config) *Context {
	if cfg.Devices < 0 {
		panic(fmt.Sprintf("core: negative device count %d", cfg.Devices))
	}
	if cfg.Devices == 0 {
		cfg.Devices = 1
	}
	params := cfg.Params
	if params == nil {
		params = timing.Default()
	}
	tl := timing.NewTimeline()
	if cfg.Trace {
		tl.EnableTrace()
	}
	met := newRuntimeMetrics(cfg.Metrics)
	kern := edgetpu.Fast
	if cfg.RefKernels {
		kern = edgetpu.Ref
	}
	c := &Context{
		cfg:      cfg,
		params:   params,
		met:      met,
		kern:     kern,
		TL:       tl,
		Pool:     edgetpu.NewPoolInjected(tl, params, cfg.Devices, met.reg, fault.New(cfg.Fault)),
		Host:     tl.NewResource("cpu-core0"),
		inflight: make(map[*Task]struct{}),
	}
	return c
}

// Metrics returns the telemetry registry every layer of this context
// records into: scheduler counters, Tensorizer cache statistics,
// per-operator virtual-latency histograms, and the per-device transfer
// and residency counters. Export it with the registry's WritePrometheus,
// or serve it over HTTP with telemetry.Listen.
func (c *Context) Metrics() *telemetry.Registry { return c.met.reg }

// Core returns c. The benchmark module still reaches the device pool
// through it, from when the public context wrapped this one.
func (c *Context) Core() *Context { return c }

// Config returns the context configuration, with Devices normalized
// to the count the pool actually holds.
func (c *Context) Config() Config { return c.cfg }

// Params returns the cost-model parameters.
func (c *Context) Params() *timing.Params { return c.params }

// Functional reports whether operators compute real results.
func (c *Context) Functional() bool { return !c.cfg.TimingOnly }

// Elapsed returns the virtual makespan of all work charged so far.
func (c *Context) Elapsed() timing.Duration { return c.TL.Makespan() }

// Energy returns the wall-power energy accounting for the work so far.
func (c *Context) Energy() energy.Report { return energy.Measure(c.TL) }

// engine returns the context's back-end IQ dispatch engine, creating
// it (without spawning workers — they start lazily on submission) on
// first use.
func (c *Context) engine() *engine {
	c.engOnce.Do(func() {
		w := c.cfg.DispatchWorkers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		c.eng = newEngine(c, w)
	})
	return c.eng
}

// Close retires the dispatch engine's workers. It is optional — an
// idle engine holds no goroutines — but gives tools a deterministic
// teardown point. Close is idempotent and safe to call concurrently,
// including concurrently with in-flight submits: instructions already
// queued finish charging before Close returns, and operators whose
// submissions lose the race fail with ErrClosed instead of panicking
// the worker pool (what gptpu-serve's shutdown drain relies on). It
// also drops the free list of released matrices.
func (c *Context) Close() {
	c.engine().close()
	c.freeMu.Lock()
	c.free = nil
	c.freeMu.Unlock()
}

// Reset rewinds virtual time and scheduler state (buffers keep their
// cached quantization; their residency is forgotten along with the
// device memories, which restart cold). It first quiesces the
// dispatch engine: in-flight instructions finish charging before the
// timeline rewinds, and submissions racing Reset block at the
// engine's admission gate until the rewind completes, so no
// instruction ever charges virtual time across the discontinuity.
func (c *Context) Reset() {
	e := c.engine()
	e.drain()
	defer e.release()
	c.TL.Reset()
	for _, d := range c.Pool.Devices {
		d.ResetState()
	}
	c.mu.Lock()
	c.resets++
	c.rr = 0
	c.mu.Unlock()
}

// nextKey allocates a unique input identity.
func (c *Context) nextKey() uint64 { return c.keySeq.Add(1) }

// ChargeHostWork charges d of application-level CPU time (e.g. the
// scalar epilogue an app keeps on the host), starting once all work
// charged so far has finished, and returns its completion time.
func (c *Context) ChargeHostWork(d timing.Duration) timing.Duration {
	return c.chargeHost(c.TL.Makespan(), d)
}

// DeviceStats is one device's view of the telemetry counters:
// instruction, residency and interconnect-traffic totals.
type DeviceStats struct {
	ID    int
	Execs int64
	// Residency of the 8 MB on-chip memory (section 6.1's rule
	// maximizes Hits).
	Hits, Misses, Evictions int64
	// Interconnect traffic in each direction.
	UploadBytes, DownloadBytes int64
}

// Stats summarizes the runtime's scheduling behaviour so far. It is a
// thin view over the telemetry registry (Context.Metrics): every field
// is read back from the same counters the Prometheus export renders.
type Stats struct {
	// PerDevice breaks executions, residency and traffic down by device.
	PerDevice []DeviceStats
	// ResidencyHits/Misses/Evictions aggregate the devices' on-chip
	// memory behaviour (section 6.1's rule maximizes hits).
	ResidencyHits, ResidencyMisses, Evictions int64
	// HitRate is hits / (hits + misses); 0 when no uploads happened.
	HitRate float64
	// AffinityHits/FCFSFallbacks count scheduler placements by the
	// section 6.1 locality rule vs first-come-first-serve.
	AffinityHits, FCFSFallbacks int64
	// QuantCacheHits/Misses count Tensorizer quantization-cache reuse.
	QuantCacheHits, QuantCacheMisses int64
	// AffinityRebinds counts affinity entries rebound to a new device
	// after the bound device left the pool (failed or quarantined).
	AffinityRebinds int64
	// DeviceLostRetries counts instructions re-dispatched after a
	// device failure.
	DeviceLostRetries int64
	// TransientRetries counts instructions retried with backoff after
	// an injected transient execution fault.
	TransientRetries int64
	// RetryBudgetExhausted counts instructions failed because their
	// dispatch retry budget ran out.
	RetryBudgetExhausted int64
	// GraphSubmits/GraphNodes count dataflow-graph submissions and the
	// nodes they executed; GraphChipIntermediates counts node outputs
	// that stayed in on-chip memory instead of round-tripping the host.
	GraphSubmits, GraphNodes, GraphChipIntermediates int64
}

// Stats returns the current scheduler statistics.
func (c *Context) Stats() Stats {
	var st Stats
	for _, d := range c.Pool.Devices {
		h, m, e := d.ResidencyStats()
		ub, db := d.IOStats()
		st.PerDevice = append(st.PerDevice, DeviceStats{
			ID: d.ID, Execs: d.Execs(),
			Hits: h, Misses: m, Evictions: e,
			UploadBytes: ub, DownloadBytes: db,
		})
		st.ResidencyHits += h
		st.ResidencyMisses += m
		st.Evictions += e
	}
	if tot := st.ResidencyHits + st.ResidencyMisses; tot > 0 {
		st.HitRate = float64(st.ResidencyHits) / float64(tot)
	}
	st.AffinityHits = int64(c.met.affinityHits.Value())
	st.FCFSFallbacks = int64(c.met.fcfsFallbacks.Value())
	st.AffinityRebinds = int64(c.met.affinityRebinds.Value())
	st.QuantCacheHits = int64(c.met.quantCacheHits.Value())
	st.QuantCacheMisses = int64(c.met.quantCacheMisses.Value())
	st.DeviceLostRetries = int64(c.met.lostRetries.Value())
	st.TransientRetries = int64(c.met.transientRetries.Value())
	st.RetryBudgetExhausted = int64(c.met.retryExhausted.Value())
	st.GraphSubmits = int64(c.met.graphSubmits.Value())
	st.GraphNodes = int64(c.met.graphNodes.Value())
	st.GraphChipIntermediates = int64(c.met.graphChipEdges.Value())
	return st
}

// nextTask allocates a task ID for the OPQ.
func (c *Context) nextTask() int { return int(c.taskSeq.Add(1)) }

// dropPlacements recycles the table of a finished task or graph: its
// entries can never match again, and a later owner's first placement
// takes the cleared map instead of building one.
func (c *Context) dropPlacements(p *placements) {
	c.mu.Lock()
	if tab := p.tab; tab != nil {
		p.tab = nil
		// Recycle only small tables: clear keeps a map's buckets, and a
		// paper-scale stream's table can hold hundreds of thousands.
		if len(tab) <= maxRecycledKeys && len(c.freeTabs) < maxFreeTabs {
			clear(tab)
			c.freeTabs = append(c.freeTabs, tab)
		}
	}
	c.mu.Unlock()
}

// Bounds on the recycled affinity tables: a daemon's concurrent
// requests each hold one table of a few dozen keys.
const (
	maxRecycledKeys = 256
	maxFreeTabs     = 64
)

// Buffer is an openctpu buffer: host raw data plus the quantization the
// Tensorizer derives on first use. Re-using a buffer across operators
// (e.g. PageRank's adjacency matrix across power iterations) re-uses
// both the quantization work and — through the scheduler's affinity
// rule — the on-device residency.
type Buffer struct {
	M   *tensor.Matrix
	key uint64

	// invalid rejects the buffer from every operator: set when the
	// host data contains non-finite values that would defeat the
	// symmetric quantization (ScaleFor guards the divide-by-zero, but
	// a NaN/Inf input still cannot produce a meaningful int8 mapping).
	// A sticky error instead of a panic: the serving daemon creates
	// buffers from remote bytes outside any Enqueue recover.
	invalid error
	// calib is the quantization calibration of M and extent the range
	// that gives its max|code|, found by the same pass that tested it
	// for non-finite values (CreateMatrixBuffer, Invalidate), so the
	// Tensorizer never walks the data again to pick a scale or size an
	// output stage.
	calib  quant.Params
	extent quant.Extent

	// chip marks the buffer as a dataflow-graph intermediate that was
	// produced by a device instruction and never left on-chip memory:
	// the host holds only a shadow copy for functional equivalence.
	// Consumers on the holding device read it for free; the Tensorizer
	// charges no host time for it (there is no host materialization to
	// transform). Set once at creation by Graph.Submit, before any
	// consumer can observe the buffer.
	chip *chipResidency

	mu        sync.Mutex
	quantized bool
	qp        quant.Params
	// q is the whole int8 form, nil until the buffer's second use (or a
	// first use that reads it whole): a buffer used once is quantized
	// window by window by the instructions that ship it. A split
	// portion's q comes from the split (see portions), never from
	// quantize: pooled scratch for the parent's first precise operator,
	// put back (nil) when that operator ends alone, rebuilt and kept by
	// the second.
	q            *tensor.MatrixI8
	readyAt      timing.Duration
	derivedForms map[derivedTag]*derived
	// split is the precision split of M, made on first use by the
	// dual-portion operators and kept for the next.
	split *split
}

// chipRef returns the buffer's on-chip residency, nil for ordinary
// host buffers. Operators attach it to the inputRefs they plan so the
// charge phase can skip (or honestly re-charge) the upload.
func (b *Buffer) chipRef() *chipResidency {
	if b == nil {
		return nil
	}
	return b.chip
}

// ErrBadInput is the sticky operator error for host data the runtime
// cannot quantize (NaN or ±Inf values).
var ErrBadInput = errors.New("core: non-finite input data")

// analyze walks the buffer's host data once, recording its
// quantization calibration and poisoning the buffer with ErrBadInput
// when it holds a NaN or ±Inf (shape-only matrices pass: they carry no
// values). A timing-only context reads no element data: its charges
// never depend on values, so every buffer gets what a shape-only one
// does.
func (b *Buffer) analyze(functional bool) {
	if !functional {
		b.calib, b.extent, b.invalid = quant.Params{Scale: 1}, quant.Extent{}, nil
		return
	}
	var finite bool
	b.calib, b.extent, finite = quant.Analyze(b.M)
	b.invalid = nil
	if !finite {
		b.invalid = fmt.Errorf("%w: %dx%d matrix contains NaN or Inf", ErrBadInput, b.M.Rows, b.M.Cols)
	}
}

// calibration returns the quantization parameters the Tensorizer's
// calibration picks for the buffer's host data.
func (b *Buffer) calibration() quant.Params {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calib
}

// CreateMatrixBuffer registers host data with the runtime. The data is
// not copied; the caller must not mutate it while operators are in
// flight. Use Invalidate after intentional mutation. In a functional
// context, data containing NaN or ±Inf yields a poisoned buffer: every
// operator consuming it fails its stream with ErrBadInput. A
// timing-only context never reads the data.
func (c *Context) CreateMatrixBuffer(m *tensor.Matrix) *Buffer {
	if m == nil {
		panic("core: CreateMatrixBuffer(nil)")
	}
	b := &Buffer{M: m, key: c.nextKey()}
	b.analyze(c.Functional())
	return b
}

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
			panic(fmt.Sprintf("core: AllocDimension(1) needs 1 size, got %d", len(sizes)))
		}
		return &Dimension{Rows: 1, Cols: sizes[0]}
	case 2:
		if len(sizes) != 2 {
			panic(fmt.Sprintf("core: AllocDimension(2) needs 2 sizes, got %d", len(sizes)))
		}
		return &Dimension{Rows: sizes[0], Cols: sizes[1]}
	default:
		panic(fmt.Sprintf("core: unsupported dimensionality %d", dims))
	}
}

// CreateBuffer creates an input/output buffer for TPU kernels over
// the raw data (openctpu_create_buffer). The data is wrapped, not
// copied; it must hold at least Rows*Cols elements.
func (c *Context) CreateBuffer(d *Dimension, data []float32) *Buffer {
	return c.CreateMatrixBuffer(tensor.FromSlice(d.Rows, d.Cols, data))
}

// Rows returns the buffer's logical row count.
func (b *Buffer) Rows() int { return b.M.Rows }

// Cols returns the buffer's logical column count.
func (b *Buffer) Cols() int { return b.M.Cols }

// Invalidate drops the cached quantization after the host mutated the
// underlying data (e.g. Gaussian elimination updating the matrix in
// place). The buffer also receives a fresh identity so stale on-device
// copies are never reused.
func (c *Context) Invalidate(b *Buffer) {
	b.mu.Lock()
	b.quantized = false
	b.q = nil
	b.derivedForms = nil
	b.split = nil
	b.key = c.nextKey()
	b.analyze(c.Functional())
	b.mu.Unlock()
}

// operand is a quantized buffer as an operator's instructions read it:
// the int8 form of m at scale p, either whole (q) or window by window —
// each instruction quantizes the part it ships into pooled scratch, the
// Tensorizer's per-tile encode (section 6.2.1).
type operand struct {
	p   quant.Params
	m   *tensor.Matrix   // host data
	q   *tensor.MatrixI8 // whole int8 form, nil while windows quantize themselves
	max int32            // max|code| of the form
}

// window returns the int8 form of the rows x cols window at (r0, c0): a
// view of the whole form, or scratch quantized from the host data. Hand
// it to release once the kernel has read it.
func (o operand) window(r0, c0, rows, cols int) *tensor.MatrixI8 {
	if o.q != nil {
		return o.q.View(r0, c0, rows, cols)
	}
	w := tensor.GetForOverwrite[int8](rows, cols)
	quant.QuantizeInto(w, o.m.View(r0, c0, rows, cols), o.p)
	return w
}

// release returns a window's scratch to the pool.
func (o operand) release(w *tensor.MatrixI8) {
	if o.q == nil {
		tensor.Put(w)
	}
}

// ensureQuantized performs (and charges) the Tensorizer's host-side
// data transformation for b once: range calibration, int8 quantization
// and model encoding. It returns b as an operand and the virtual time
// at which the encoded model is available. task tags the trace span
// with the OPQ task that triggered the encode.
//
// The first use builds no int8 matrix — the instructions quantize their
// own windows — and max|code| comes from the extent the buffer's
// analysis found. A later use builds the whole form and keeps it for
// every use after.
func (c *Context) ensureQuantized(b *Buffer, ready timing.Duration, task int) (operand, timing.Duration) {
	return c.quantize(b, ready, task, false)
}

// wholeQuantized is ensureQuantized for a consumer that reads b's int8
// form whole (a crop, the FullyConnected GEMM's weight columns, the
// kernel of a conv2D): it builds the form on this use if there is none
// yet.
func (c *Context) wholeQuantized(b *Buffer, ready timing.Duration, task int) (operand, timing.Duration) {
	return c.quantize(b, ready, task, true)
}

func (c *Context) quantize(b *Buffer, ready timing.Duration, task int, whole bool) (operand, timing.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	reused := b.quantized
	switch {
	case reused:
		c.met.quantCacheHits.Inc()
	case b.chip != nil:
		// Graph intermediate: the value was produced on-device and never
		// materialized on the host, so there is no quantize/encode pass to
		// charge — it becomes usable the moment its producer finished.
		// Its calibration still comes from the host shadow, so downstream
		// functional math is bit-identical to the per-op path, which
		// re-quantizes the downloaded result the same way.
		b.readyAt = b.chip.ready
	default:
		c.met.quantCacheMisses.Inc()
		b.readyAt = c.tensorize(int64(b.M.Elems()), ready, task)
	}
	if !reused {
		b.qp = quant.Params{Scale: 1}
		if c.Functional() {
			b.qp = b.calib
		}
		b.quantized = true
	}
	if c.Functional() && b.q == nil && (reused || whole) {
		b.q = quant.QuantizeWith(b.M, b.qp)
	}
	return operand{p: b.qp, m: b.M, q: b.q, max: b.extent.MaxCode(b.qp.Scale)}, maxDur(b.readyAt, ready)
}

// tensorize charges the Tensorizer's host pass over elems values from
// ready on the host core — quantize and encode into the model format,
// or invoke the reference TFLite compiler (the UseTFLiteCompiler ablation)
// — and returns when it ends.
func (c *Context) tensorize(elems int64, ready timing.Duration, task int) timing.Duration {
	cost := c.params.QuantTime(elems)
	if c.cfg.UseTFLiteCompiler {
		cost += c.params.RefCompileTime(elems)
	} else {
		cost += c.params.TensorizerEncodeTime(elems)
	}
	_, end := c.Host.AcquireSpan(ready, cost,
		timing.Span{Phase: "tensorize", Task: task, Bytes: elems})
	c.TL.Observe(end)
	return end
}

// quantFlags is every instruction's quantization flag word: SCALE
// (section 6.2.2, Eqs. 4-8) is the one calibration the runtime
// implements. Instructions only share a device placement when their
// flags match (section 6.1).
const quantFlags = uint32(quant.MethodScale) + 1
