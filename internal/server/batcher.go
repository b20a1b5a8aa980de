package server

import (
	"fmt"
	"sync"
	"time"

	gptpu "repro"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// weightCacheCap bounds the batcher's cached weight buffers. Each
// cached buffer keeps its Tensorizer quantization and — through the
// scheduler's affinity rule — its on-device residency, so repeated
// inference against the same weights skips both the host re-quantize
// and the PCIe re-upload.
const weightCacheCap = 32

// batchKey identifies a coalescible GEMM class: requests batch only
// when their inner/output dimensions match and their weight matrix B
// is byte-identical. The 64-bit FNV-1a hash is only a fast map index —
// it is not collision-proof (and collisions are adversarially
// craftable), so every group join and weight-cache hit confirms
// identity by byte-comparing the actual matrices; a collision falls
// back to the unbatched path rather than computing against the wrong
// weights.
type batchKey struct {
	n, k  int
	bhash uint64
}

// callResult is a batched call's outcome.
type callResult struct {
	m   *tensor.Matrix
	err error
}

// gemmCall is one request waiting in a batch group.
type gemmCall struct {
	a        *tensor.Matrix
	deadline time.Time  // the client's absolute deadline (zero = none)
	rt       *obs.Trace // rider's request trace, nil when tracing is off
	done     chan callResult
}

// fanObs fans one batched submission's engine observations out to
// every rider's trace: the stacked GEMM runs once, but each request
// in the batch owns the queue-wait/charge/exec time it shared.
type fanObs []*obs.Trace

func (f fanObs) ObserveSpan(stage string, start time.Time, d time.Duration, attr string) {
	for _, t := range f {
		t.ObserveSpan(stage, start, d, attr)
	}
}

func (f fanObs) ObserveEvent(name, attr string, fault bool) {
	for _, t := range f {
		t.ObserveEvent(name, attr, fault)
	}
}

// batchGroup is a key's pending group: the calls that arrived while
// the key's previous batch was running.
type batchGroup struct {
	b     *tensor.Matrix
	calls []*gemmCall
	rows  int
}

// batcher coalesces small GEMM requests into stacked submissions. One
// flush costs the runtime a single operator invocation — one stacked-A
// quantization, one derived conv layout, one plan→submit→collect run
// through the dispatch engine — where the unbatched path pays each of
// those per request.
//
// Batching is occupancy-driven, per batch key: idle → running (the
// first call flushes at once) → arrivals accumulate in the pending
// group → drain (the batch returned: flush the group) → idle once a
// batch returns to an empty group. A group that reaches the call or
// row cap flushes early, beside the running batch.
type batcher struct {
	gx      *gptpu.Context
	met     *serverMetrics
	maxReqs int
	maxRows int // batchMaxRows; the property test lowers it

	mu sync.Mutex
	// groups holds an entry per running key (one with a drain loop):
	// its pending group, nil while none has formed.
	groups  map[batchKey]*batchGroup
	weights map[batchKey]cachedWeight
	worder  []batchKey // FIFO eviction order for the weight cache

	// flushHook runs before every drain-loop flush and its result after
	// it; tests replace the no-op before the first submit.
	flushHook func(key batchKey) (end func())
}

// cachedWeight pairs a cached runtime weight buffer with the matrix it
// was built from, so cache hits can confirm byte-identity (the map key
// only carries a hash).
type cachedWeight struct {
	m   *tensor.Matrix
	buf *gptpu.Buffer
}

// batchMaxRows flushes a group early once its stacked activation
// matrix reaches this many rows.
const batchMaxRows = 4096

// batchMaxRequests flushes a group early once this many requests
// coalesced. No GEMM waits for company: one whose key has no batch
// running flushes at once.
const batchMaxRequests = 16

func newBatcher(gx *gptpu.Context, met *serverMetrics, maxReqs int) *batcher {
	return &batcher{
		gx: gx, met: met,
		maxReqs: maxReqs, maxRows: batchMaxRows,
		groups:    make(map[batchKey]*batchGroup),
		weights:   make(map[batchKey]cachedWeight),
		flushHook: func(batchKey) func() { return func() {} },
	}
}

// submit queues one GEMM call under key, reporting whether it joined a
// group. A false return means the call's weight matrix hash-collides
// with the key's pending group's weights (same key, different bytes) —
// the caller must serve it through the unbatched execute path instead,
// so a crafted collision can never compute another client's GEMM
// against the wrong matrix. On true, the call's reply arrives on
// call.done after its group flushes.
//
// Ownership: on true, weight belongs to the batcher — the group it
// opened keeps it (and the weight cache may keep it for good), or, when
// the call joined a pending group that already holds the same bytes, it
// went back to the float32 pool. On false it is still the caller's.
// call.a stays the caller's throughout; the flush only reads it, and
// has finished with it by the time call.done delivers.
func (b *batcher) submit(key batchKey, weight *tensor.Matrix, call *gemmCall) bool {
	b.mu.Lock()
	g, running := b.groups[key]
	if g == nil {
		g = &batchGroup{b: weight}
	} else if !WeightEqual(g.b, weight) {
		b.mu.Unlock()
		return false
	} else if weight != g.b {
		tensor.Put(weight)
	}
	g.calls = append(g.calls, call)
	g.rows += call.a.Rows
	capped := len(g.calls) >= b.maxReqs || g.rows >= b.maxRows
	if !running || capped {
		b.groups[key] = nil // g leaves now
	} else {
		b.groups[key] = g
	}
	b.mu.Unlock()
	if !running {
		go b.drain(key, g)
	} else if capped {
		go b.flush(key, g)
	}
	return true
}

// drain is a key's running state: flush g, then each group that
// accumulated meanwhile, until the key goes idle.
func (b *batcher) drain(key batchKey, g *batchGroup) {
	for g != nil {
		end := b.flushHook(key)
		b.flush(key, g)
		end()
		b.mu.Lock()
		if g = b.groups[key]; g == nil {
			delete(b.groups, key) // idle
		} else {
			b.groups[key] = nil
		}
		b.mu.Unlock()
	}
}

// weightBuffer returns the cached runtime buffer for key, creating
// and caching it on first use. A hit is honored only when the cached
// matrix is byte-identical to weight — a hash-colliding entry would
// otherwise poison every later flush under this key — so on mismatch
// the flush gets a fresh buffer and the cache entry is left alone.
// kept reports that the cache now holds weight itself: a kept matrix
// outlives the flush (later flushes compute over its buffer) and is
// never returned to the pool, not even after eviction.
func (b *batcher) weightBuffer(key batchKey, weight *tensor.Matrix) (buf *gptpu.Buffer, kept bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if wb, ok := b.weights[key]; ok {
		if WeightEqual(wb.m, weight) {
			b.met.weightHits.Inc()
			return wb.buf, wb.m == weight
		}
		return b.gx.CreateMatrixBuffer(weight), false
	}
	if len(b.worder) >= weightCacheCap {
		delete(b.weights, b.worder[0])
		b.worder = b.worder[1:]
	}
	wb := b.gx.CreateMatrixBuffer(weight)
	b.weights[key] = cachedWeight{m: weight, buf: wb}
	b.worder = append(b.worder, key)
	return wb, true
}

// flush executes one group: expire stale calls, stack the survivors'
// A matrices, run one GEMM task, and scatter the row bands back to
// the waiting calls. A lone survivor skips both copies: the task
// computes straight over its A, and the result goes to it whole.
func (b *batcher) flush(key batchKey, g *batchGroup) {
	now := time.Now()
	live, rows := g.calls[:0], 0
	var riders fanObs
	for _, c := range g.calls {
		if expired(c.deadline, now) {
			c.done <- callResult{err: ErrDeadlineExceeded}
			continue
		}
		live, rows = append(live, c), rows+c.a.Rows
		if c.rt != nil {
			riders = append(riders, c.rt)
		}
	}
	if len(live) == 0 {
		return
	}

	a := live[0].a
	var stacked *tensor.Matrix
	if len(live) > 1 {
		stacked = stackRows(live, rows, key.n)
		a = stacked
	}
	wb, weightKept := b.weightBuffer(key, g.b)
	ab := b.gx.CreateMatrixBuffer(a)
	var to gptpu.TaskObserver
	if len(riders) > 0 {
		riders.ObserveEvent("batched", fmt.Sprintf("riders=%d rows=%d", len(live), rows), false)
		to = riders
	}
	var out *tensor.Matrix
	task := b.gx.EnqueueObserved(to, func(op *gptpu.Op) { out = op.Gemm(ab, wb) })
	err := task.Wait()
	if err == nil && out == nil {
		err = fmt.Errorf("%w: batched GEMM returned no result", ErrInternal)
	}
	// The task is over: nothing reads the stacked activations any more,
	// nor the group's weight matrix unless the weight cache kept it.
	tensor.Put(stacked)
	if !weightKept {
		tensor.Put(g.b)
	}

	b.met.batches.Inc()
	b.met.batchedReqs.Add(uint64(len(live)))

	if err != nil {
		res := callResult{err: mapRuntimeErr(err)}
		for _, c := range live {
			c.done <- res
		}
		return
	}
	if len(live) == 1 {
		live[0].done <- callResult{m: out}
		return
	}
	// Each rider gets its own copy of its row band (the handler encodes
	// it and returns it to the pool); only then may the stacked result go.
	r0 := 0
	for _, c := range live {
		band := tensor.GetForOverwrite[float32](c.a.Rows, key.k)
		band.CopyFrom(out.View(r0, 0, c.a.Rows, key.k))
		r0 += c.a.Rows
		c.done <- callResult{m: band}
	}
	tensor.Put(out)
}

// stackRows copies the calls' A matrices (rows in all), in order, into
// one pooled matrix, so one GEMM computes every call:
// [A1; A2; ...] x B = [C1; C2; ...].
func stackRows(calls []*gemmCall, rows, cols int) *tensor.Matrix {
	stacked := tensor.GetForOverwrite[float32](rows, cols) // every row is copied over
	r0 := 0
	for _, c := range calls {
		stacked.View(r0, 0, c.a.Rows, cols).CopyFrom(c.a)
		r0 += c.a.Rows
	}
	return stacked
}
