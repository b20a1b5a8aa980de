package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/edgetpu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/timing"
)

// iqCap bounds the back-end instruction queue. Submitters block once
// this many instructions are waiting — the backpressure that keeps a
// fast front-end (the Tensorizer emitting thousands of tile
// instructions) from buffering an entire paper-scale sweep in memory.
const iqCap = 256

// ErrClosed is the sticky error operators report when their
// instructions reach the dispatch engine after Context.Close. A server
// draining connections can race late submissions against shutdown;
// they must fail cleanly, never panic the worker pool.
var ErrClosed = errors.New("core: context closed")

// ErrRetryBudget is the sticky error an instruction reports when its
// dispatch retries (transient faults, mid-flight device losses) exceed
// the configured budget. It wraps the last underlying failure.
var ErrRetryBudget = errors.New("core: dispatch retry budget exhausted")

// defaultRetryBudget bounds retries per instruction when
// Config.RetryBudget is zero.
const defaultRetryBudget = 8

// retryBackoff is the initial virtual backoff before a transient-fault
// retry; it doubles per consecutive retry of the same instruction.
const retryBackoff = 10 * time.Microsecond

// batch tracks one submission through the IQ: how many of its
// instructions are still outstanding, the latest virtual completion
// time seen, and the first dispatch error.
type batch struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	last timing.Duration
	err  error
}

// complete records one instruction's outcome.
func (b *batch) complete(end timing.Duration, err error) {
	b.mu.Lock()
	if err != nil && b.err == nil {
		b.err = err
	}
	if end > b.last {
		b.last = end
	}
	b.mu.Unlock()
	b.wg.Done()
}

// failed reports whether any instruction of the batch has errored;
// later instructions of a failed batch skip dispatch (the submitting
// operator discards the whole result).
func (b *batch) failed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err != nil
}

// collect waits for every instruction and returns the outcome.
func (b *batch) collect() (timing.Duration, error) {
	b.wg.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return 0, b.err
	}
	return b.last, nil
}

// iqItem is one queued IQ entry: the instruction work, the batch it
// belongs to, and its enqueue instant (read only when the instruction
// carries an observer, for its queue_wait span).
type iqItem struct {
	w   *instrWork
	b   *batch
	enq time.Time
}

// engine is the back-end instruction-queue runtime of Figure 4: a
// bounded FIFO of instructions feeding a pool of worker goroutines.
//
// Execution is split in two phases with different concurrency rules:
//
//   - Timeline charging (device assignment via pickDevice, upload/
//     exec/download accounting, device-lost retry) mutates shared
//     virtual-time state — device compute units, per-card PCIe
//     uplinks, the affinity table, FCFS availability queries — so its
//     outcome depends on operation order. A worker therefore charges
//     an instruction at pop time, while still holding the queue lock:
//     pops are FIFO, so charge order equals enqueue order and the
//     virtual makespan is bit-identical for any worker count or
//     GOMAXPROCS (DESIGN.md §6 has the ticket design this replaced).
//
//   - Functional closures (the bit-exact int8 computation) are pure
//     with respect to runtime state and run outside the lock,
//     wall-clock-parallel on the workers, overlapping with the
//     charging of later instructions.
//
// Workers are spawned lazily on submission and retire when the queue
// drains, so idle contexts hold no goroutines and no explicit
// shutdown is required (Close exists for deterministic teardown).
type engine struct {
	c       *Context
	workers int

	mu       sync.Mutex
	notEmpty *sync.Cond    // workers: queue gained an item, or closed/idle flipped
	notFull  *sync.Cond    // submitters: queue space freed, or the drain gate reopened
	idle     *sync.Cond    // drain/close: inflight hit zero or a worker retired
	queue    [iqCap]iqItem // FIFO ring: qlen entries from qhead
	qhead    int
	qlen     int
	running  int // live worker goroutines
	inflight int // items enqueued but not yet completed
	closed   bool
	draining bool // admission gate: submissions block during a Reset drain
}

func newEngine(c *Context, workers int) *engine {
	e := &engine{c: c, workers: workers}
	e.notEmpty = sync.NewCond(&e.mu)
	e.notFull = sync.NewCond(&e.mu)
	e.idle = sync.NewCond(&e.mu)
	return e
}

// submit enqueues every entry of works on behalf of bt, blocking for
// queue space (backpressure) and spawning workers up to the
// configured count. Entries of one submission enter the queue — and
// therefore the charge order — in slice order.
func (e *engine) submit(works []instrWork, bt *batch) {
	bt.wg.Add(len(works))
	e.mu.Lock()
	for i := range works {
		// Admission: blocked by a full queue (backpressure) or by a
		// Reset drain in progress (no instruction may charge virtual
		// time across the timeline rewind).
		for (e.qlen == iqCap || e.draining) && !e.closed {
			e.notFull.Wait()
		}
		if e.closed {
			// The engine shut down while this submission was in
			// flight (or arrived after Close): fail the remaining
			// instructions instead of enqueueing onto retired workers.
			e.mu.Unlock()
			for range works[i:] {
				bt.complete(0, ErrClosed)
			}
			return
		}
		item := iqItem{w: &works[i], b: bt}
		if item.w.obs != nil {
			item.enq = time.Now()
		}
		e.queue[(e.qhead+e.qlen)%iqCap] = item
		e.qlen++
		e.inflight++
		if e.running < e.workers {
			e.running++
			go e.worker()
		}
		e.notEmpty.Signal()
	}
	e.mu.Unlock()
}

// worker is one dispatch goroutine: pop the queue front and charge the
// instruction's virtual pipeline while still holding the queue lock
// (FIFO pops make that charge order deterministic), then run the
// functional closure outside the lock, in parallel with other workers.
// The wall clock is read only for instructions that carry an observer.
func (e *engine) worker() {
	e.mu.Lock()
	for {
		for e.qlen == 0 {
			if e.closed || e.inflight == 0 {
				e.running--
				e.idle.Broadcast()
				e.mu.Unlock()
				return
			}
			e.notEmpty.Wait()
		}
		item := e.queue[e.qhead]
		e.queue[e.qhead] = iqItem{}
		e.qhead = (e.qhead + 1) % iqCap
		e.qlen--
		e.notFull.Signal() // queue space freed: wake one submitter

		ob := item.w.obs
		var start time.Time
		if ob != nil {
			// See the TaskObserver contract for why these fire under e.mu.
			start = time.Now()
			ob.ObserveSpan(obs.StageQueueWait, item.enq, start.Sub(item.enq), "")
		}
		var (
			end timing.Duration
			err error
		)
		if !item.b.failed() {
			end, err = e.c.chargeInstr(item.w)
			if ob != nil {
				ob.ObserveSpan(obs.StageCharge, start, time.Since(start), "")
			}
		}
		e.mu.Unlock()

		if err == nil && item.w.fn != nil && !item.b.failed() {
			if ob != nil {
				start = time.Now()
			}
			item.w.fn()
			if ob != nil {
				ob.ObserveSpan(obs.StageExec, start, time.Since(start), "")
			}
		}
		item.b.complete(end, err)

		e.mu.Lock()
		e.inflight--
		if e.inflight == 0 {
			e.idle.Broadcast()
			e.notEmpty.Broadcast() // idle workers may now retire
		}
	}
}

// drain closes the admission gate and blocks until the IQ holds no
// queued or in-flight instructions. Context.Reset quiesces through it
// before rewinding the timeline; submissions racing the Reset block at
// the gate (instead of enqueueing mid-rewind) until release reopens
// it. Waiting for inflight alone would let a racing submit slip work
// in between the drain and the rewind, charging virtual time across
// the discontinuity.
func (e *engine) drain() {
	e.mu.Lock()
	e.draining = true
	for e.inflight > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// release reopens the admission gate drain closed and wakes blocked
// submitters.
func (e *engine) release() {
	e.mu.Lock()
	e.draining = false
	e.notFull.Broadcast()
	e.mu.Unlock()
}

// close drains the queue and retires every worker. It is idempotent
// and safe to race against in-flight submits: instructions already
// enqueued finish charging (close waits for them), while submissions
// that lose the race fail with ErrClosed instead of enqueueing onto
// retired workers. It exists for deterministic teardown, not lifecycle
// management (idle engines hold no goroutines anyway).
func (e *engine) close() {
	e.mu.Lock()
	for e.inflight > 0 && !e.closed {
		e.idle.Wait()
	}
	e.closed = true
	e.notEmpty.Broadcast() // waiting workers observe closed and retire
	e.notFull.Broadcast()  // blocked submitters observe closed and fail
	for e.running > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// chargeInstr charges one instruction's full virtual pipeline —
// operand uploads (skipped on residency hits), matrix-unit execution,
// result download — on the device pickDevice assigns. The assignment
// stage is re-entered when the chosen device fails mid-flight
// (immediately, on the remaining pool) or suffers an injected
// transient fault (after an exponentially growing virtual backoff),
// bounded by the context's retry budget so a pathological fault plan
// degrades to a typed error instead of an unbounded spin. The pool's
// injector ticks first, so time-scheduled kills and revivals fire at
// deterministic points of the serialized charge order.
func (c *Context) chargeInstr(w *instrWork) (timing.Duration, error) {
	budget := c.cfg.RetryBudget
	if budget <= 0 {
		budget = defaultRetryBudget
	}
	backoff := retryBackoff
	var lastErr error
	for attempt := 0; attempt <= budget; attempt++ {
		c.Pool.Tick(c.TL.Makespan())
		var stack [8]*edgetpu.Device
		healthy := c.Pool.AppendHealthy(stack[:0])
		if len(healthy) == 0 {
			return 0, ErrNoDevices
		}
		d := c.pickDevice(w, healthy)
		end, err := c.tryOn(d, w)
		if err == nil {
			c.met.instrs.With(w.instr.Op.String()).Add(uint64(w.n()))
			return end, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, edgetpu.ErrDeviceLost):
			// Reroute to the remaining pool at once; the lost device's
			// stale affinity entries rebind on their next use.
			c.met.lostRetries.Inc()
			if w.obs != nil {
				w.obs.ObserveEvent("device_lost", fault.NoteDeviceLost(d.ID, attempt), true)
			}
		case errors.Is(err, edgetpu.ErrTransient):
			// The device is healthy but the execution was lost: hold
			// the instruction back in virtual time before retrying.
			c.met.transientRetries.Inc()
			if w.obs != nil {
				w.obs.ObserveEvent("transient_retry", fault.NoteTransient(d.ID, attempt, backoff), true)
			}
			w.ready += backoff
			backoff *= 2
		default:
			return 0, err
		}
	}
	c.met.retryExhausted.Inc()
	if w.obs != nil {
		w.obs.ObserveEvent("retry_budget_exhausted", fault.NoteBudgetExhausted(budget+1), true)
	}
	return 0, fmt.Errorf("%w after %d attempts: %w", ErrRetryBudget, budget+1, lastErr)
}
