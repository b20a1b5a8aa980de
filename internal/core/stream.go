package core

import (
	"math"

	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Stream is one serial chain of TPU operations, published as gptpu.Op:
// the execution context of a single OPQ task. Operations on a stream
// are serialized with respect to each other ("all TPU operations
// within a task will perform in serial", paper section 5), while
// separate streams — like separate tasks — run concurrently on the
// machine's resources.
//
// Errors are sticky: after a failure every subsequent operation is a
// no-op and Err returns the first error.
type Stream struct {
	c      *Context
	taskID int
	now    timing.Duration
	err    error
	obs    TaskObserver // nil unless the task was enqueued observed
	places *placements  // affinity table, shared by a graph's node streams

	// Graph-node execution mode (set by Graph.Submit, never by user
	// code). pin routes every instruction of the node to its chain's
	// home device; onChip suppresses the result download and the host
	// dequantization epilogue because the node's output stays in
	// on-chip memory for a downstream node.
	pin    *graphHome
	onChip bool
}

// NewOp opens a serial operator chain outside any task, for
// straight-line host code.
func (c *Context) NewOp() *Stream {
	return &Stream{c: c, taskID: c.nextTask(), places: new(placements)}
}

// Now returns the stream's virtual clock: the completion time of its
// last operation.
func (s *Stream) Now() timing.Duration { return s.now }

// Err returns the first error the stream encountered, if any. The
// error is sticky: once any operation on the stream fails — a poisoned
// input buffer (ErrBadInput), a retry budget exhausted mid-chain
// (ErrRetryBudget), the pool running out of healthy devices
// (ErrNoDevices), or the context closing underneath it (ErrClosed) —
// every later operation on the same stream is a no-op returning
// zero-value results, and Err keeps reporting the *first* failure, not
// the last. Callers therefore check Err once, after the chain, and get
// the root cause rather than a cascade symptom. Graph execution builds
// its downstream poisoning on this contract: a failed node's
// dependents fail with ErrUpstream instead of computing on garbage.
func (s *Stream) Err() error { return s.err }

// fail records a sticky error.
func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// inputs validates operand buffers at operator entry. A poisoned
// buffer (non-finite host data, see CreateMatrixBuffer) fails the
// stream with its sticky ErrBadInput and reports false, so the
// operator becomes a no-op instead of quantizing NaN/Inf garbage.
func (s *Stream) inputs(bufs ...*Buffer) bool {
	for _, b := range bufs {
		if b == nil {
			continue
		}
		b.mu.Lock()
		err := b.invalid
		b.mu.Unlock()
		if err != nil {
			s.fail(err)
			return false
		}
	}
	return true
}

// opTimer starts a per-operator virtual-latency observation. Call at
// operator entry and defer the returned func: it observes how long the
// invocation occupied the stream's virtual clock.
//
//	defer s.opTimer("tpuGemm")()
func (s *Stream) opTimer(op string) func() {
	start := s.now
	return func() {
		s.c.met.opVLat.With(op).Observe((s.now - start).Seconds())
	}
}

// advance moves the stream clock to the given completion time.
func (s *Stream) advance(end timing.Duration) {
	if end > s.now {
		s.now = end
	}
	s.c.TL.Observe(s.now)
}

// plan accumulates the back-end instruction stream one operator
// invocation emits: the operator's tiling math appends one instrWork
// per instruction, submit hands the whole run to the dispatch engine.
// Every operator front-end follows the same three steps — plan
// (tiling math), submit (IQ dispatch), collect (outcome into the
// stream) — leaving each operator only its tiling math and its
// dequantization epilogue.
//
// A plan is also its own in-flight handle (submit returns it, collect
// waits on it), and its storage is recycled: collect hands the plan
// back to the context's pool once every instruction has completed, so
// the instruction slice, the operand-reference arena and the batch
// tracker are allocated once and reused by later operators instead of
// once per operator invocation.
type plan struct {
	s     *Stream
	works []instrWork
	refs  []inputRef // arena the instructions' operand lists are carved from
	bt    batch
}

// plan opens an instruction plan sized for about n instructions.
func (s *Stream) plan(n int) *plan {
	p, _ := s.c.plans.Get().(*plan)
	if p == nil {
		p = &plan{}
	}
	p.s = s
	if cap(p.works) < n {
		p.works = make([]instrWork, 0, n)
	}
	return p
}

// add appends one instruction to the plan.
func (p *plan) add(w instrWork) { p.works = append(p.works, w) }

// inputs returns the operand list for the next instruction, carved
// from the plan's arena (a grown arena leaves earlier lists on the old
// array, which they keep alive).
func (p *plan) inputs(refs ...inputRef) []inputRef {
	n := len(p.refs)
	p.refs = append(p.refs, refs...)
	return p.refs[n:len(p.refs):len(p.refs)]
}

// submit enqueues the planned instructions on the back-end IQ and
// returns the plan as the handle to collect their completion.
// Submission is asynchronous: the operator goroutine keeps planning
// (and building layouts for) its next batch while the engine charges
// and executes this one. A plan's instructions enter the charge order as
// one contiguous run, in plan order.
func (p *plan) submit() *plan {
	s := p.s
	for i := range p.works {
		w := &p.works[i]
		w.obs, w.places, w.home = s.obs, s.places, s.pin
		if s.onChip {
			// The node's result feeds another on-device node: it stays in
			// on-chip memory, so no result bytes cross the interconnect.
			w.outBytes = 0
		}
	}
	s.c.engine().submit(p.works, &p.bt)
	return p
}

// collect waits for every instruction of the submission and returns
// the virtual completion time of the last one. A failed batch marks
// the stream failed and returns ok=false. The plan must not be used
// afterwards: no worker touches an instruction once the batch has
// drained, so its storage goes back to the pool here.
func (p *plan) collect() (end timing.Duration, ok bool) {
	end, err := p.bt.collect()
	s := p.s
	clear(p.works) // drop the closures and observers the entries hold
	clear(p.refs)
	p.s, p.works, p.refs, p.bt.last, p.bt.err = nil, p.works[:0], p.refs[:0], 0, nil
	s.c.plans.Put(p)
	if err != nil {
		s.fail(err)
		return 0, false
	}
	return end, true
}

// finish charges the operator's host-side epilogue (CPU aggregation,
// dequantization) after the collected batch and advances the stream
// clock past it. A node whose result stays on-chip has no host-side
// result to dequantize, so the epilogue is skipped entirely.
func (s *Stream) finish(end, epilogue timing.Duration) {
	if s.onChip {
		s.advance(end)
		return
	}
	s.advance(s.c.chargeHost(end, epilogue))
}

// mix produces a derived input identity for tile idx of base input
// key (64-bit mixing, collision probability negligible for the tile
// counts involved).
func mix(base uint64, idx uint64) uint64 {
	x := base*0x9E3779B97F4A7C15 ^ (idx+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x
}

// derived is a cached alternative quantized form of a buffer (e.g. a
// joint-scale re-quantization for add/sub, or the conv2D-GEMM
// reshaped layout). Each form has its own input identity so device
// residency distinguishes it from the buffer's primary model.
type derived struct {
	key     uint64
	q       *tensor.MatrixI8
	readyAt timing.Duration
}

// derivedQuant returns (charging on first use) a derived quantized form
// of b identified by tag. build runs only in functional mode, under
// b.mu, on every use while the form has no int8 matrix: it returns the
// matrix, or nil to leave the instructions quantizing their own
// windows; reused reports a use after the form's first.
// elems is the logical size charged to the host-side transformation;
// task tags the trace span with the OPQ task that triggered the build.
func (c *Context) derivedQuant(b *Buffer, tag derivedTag, elems int64, ready timing.Duration, task int, build func(reused bool) *tensor.MatrixI8) *derived {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.derivedForms == nil {
		b.derivedForms = make(map[derivedTag]*derived)
	}
	d, reused := b.derivedForms[tag]
	switch {
	case reused:
		c.met.quantCacheHits.Inc()
	case b.chip != nil:
		// Derived form of a graph intermediate: the source never left the
		// device, so no host transformation is charged (mirrors
		// ensureQuantized). The int8 form still comes from the host
		// shadow for bit-exact functional equivalence with the per-op
		// path.
		d = &derived{key: c.nextKey(), readyAt: maxDur(b.chip.ready, ready)}
	default:
		c.met.quantCacheMisses.Inc()
		d = &derived{key: c.nextKey(), readyAt: c.tensorize(elems, ready, task)}
	}
	b.derivedForms[tag] = d
	if c.Functional() && build != nil && d.q == nil {
		d.q = build(reused)
	}
	if d.readyAt < ready {
		// Availability is the later of cache-fill time and the caller's
		// ready time.
		d2 := *d
		d2.readyAt = ready
		return &d2
	}
	return d
}

// jointQuant returns b at the joint scale p of a pairwise add or sub: a
// derived form with an identity of its own, read window by window on its
// first use and built whole on its second, like the buffer's own form.
// max|code| comes from b's extent, valid since p is no larger than b's
// own calibration.
func (c *Context) jointQuant(b *Buffer, p quant.Params, ready timing.Duration, task int) (operand, *derived) {
	tag := derivedTag{kind: tagJoint, scale: math.Float32bits(p.Scale)}
	d := c.derivedQuant(b, tag, int64(b.M.Elems()), ready, task, func(reused bool) *tensor.MatrixI8 {
		if !reused {
			return nil
		}
		return quant.QuantizeWith(b.M, p)
	})
	return operand{p: p, m: b.M, q: d.q, max: b.extent.MaxCode(p.Scale)}, d
}

// derivedTag names one derived form of a buffer in its cache: which
// layout (kind), and the parameters that distinguish two forms of the
// same kind — the inner-dimension segment and its padded side for the
// conv2D-GEMM layouts, the scale's bit pattern for a joint-scale
// re-quantization.
type derivedTag struct {
	kind      string
	seg, side int
	scale     uint32
}

const (
	tagConvA = "convA"
	tagConvB = "convB"
	tagJoint = "joint"
)
