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
// weights. Stacking the A matrices row-wise then computes every
// request in one multi-segment tpuGemm submission:
// [A1; A2; ...] x B = [C1; C2; ...].
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
	a              *tensor.Matrix
	arrived        time.Time
	deadlineMillis uint32
	rt             *obs.Trace // rider's request trace, nil when tracing is off
	done           chan callResult
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

// batchGroup accumulates compatible calls until the window timer, the
// request cap, or the stacked-row cap flushes it.
type batchGroup struct {
	b     *tensor.Matrix
	calls []*gemmCall
	rows  int
	timer *time.Timer // window timer; stopped when a cap flush wins
}

// batcher coalesces small GEMM requests into stacked submissions. One
// flush costs the runtime a single operator invocation — one stacked-A
// quantization, one derived conv layout, one plan→submit→collect run
// through the dispatch engine — where the unbatched path pays each of
// those per request.
//
// State machine per batch key: idle → accumulating (first call
// arrives, window timer armed) → flushing (timer fires, or the call
// or row cap is hit, whichever first) → idle. Flushes of different
// keys proceed independently.
type batcher struct {
	gx      *gptpu.Context
	met     *serverMetrics
	window  time.Duration
	maxReqs int
	maxRows int

	mu      sync.Mutex
	groups  map[batchKey]*batchGroup
	weights map[batchKey]cachedWeight
	worder  []batchKey // FIFO eviction order for the weight cache
}

// cachedWeight pairs a cached runtime weight buffer with the matrix it
// was built from, so cache hits can confirm byte-identity (the map key
// only carries a hash).
type cachedWeight struct {
	m   *tensor.Matrix
	buf *gptpu.Buffer
}

func newBatcher(gx *gptpu.Context, met *serverMetrics, window time.Duration, maxReqs, maxRows int) *batcher {
	if maxReqs <= 0 {
		maxReqs = 16
	}
	if maxRows <= 0 {
		maxRows = 4096
	}
	return &batcher{
		gx: gx, met: met,
		window: window, maxReqs: maxReqs, maxRows: maxRows,
		groups:  make(map[batchKey]*batchGroup),
		weights: make(map[batchKey]cachedWeight),
	}
}

// submit queues one GEMM call under key, reporting whether it joined a
// group. A false return means the call's weight matrix hash-collides
// with the live group's weights (same key, different bytes) — the
// caller must serve it through the unbatched execute path instead, so
// a crafted collision can never compute another client's GEMM against
// the wrong matrix. On true, the call's reply arrives on call.done
// after the group flushes.
//
// Ownership: on true, weight belongs to the batcher — the group it
// opened keeps it (and the weight cache may keep it for good), or, when
// the call joined a live group that already holds the same bytes, it
// went back to the float32 pool. On false it is still the caller's.
// call.a stays the caller's throughout; the flush only reads it, and
// has finished with it by the time call.done delivers.
func (b *batcher) submit(key batchKey, weight *tensor.Matrix, call *gemmCall) bool {
	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &batchGroup{b: weight}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flushKey(key, g) })
	} else if !WeightEqual(g.b, weight) {
		b.mu.Unlock()
		return false
	} else if weight != g.b {
		tensor.PutF32(weight)
	}
	g.calls = append(g.calls, call)
	g.rows += call.a.Rows
	full := len(g.calls) >= b.maxReqs || g.rows >= b.maxRows
	if full {
		// Retire the group and its window timer; flushKey tolerates a
		// timer that already fired and lost the race.
		delete(b.groups, key)
		g.timer.Stop()
	}
	b.mu.Unlock()
	if full {
		go b.flush(key, g)
	}
	return true
}

// flushKey is the window-timer path: flush g only if it is still the
// live group for key (a cap-triggered flush may have raced ahead).
func (b *batcher) flushKey(key batchKey, g *batchGroup) {
	b.mu.Lock()
	if b.groups[key] != g {
		b.mu.Unlock()
		return
	}
	delete(b.groups, key)
	b.mu.Unlock()
	b.flush(key, g)
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
// the waiting calls.
func (b *batcher) flush(key batchKey, g *batchGroup) {
	now := time.Now()
	live := g.calls[:0]
	for _, c := range g.calls {
		if expired(c.arrived, c.deadlineMillis, now) {
			b.met.deadline.Inc()
			c.done <- callResult{err: ErrDeadlineExceeded}
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}

	rows := 0
	for _, c := range live {
		rows += c.a.Rows
	}
	// Every row of stacked is copied over below, and its only reader is
	// this flush's task.
	stacked := tensor.GetF32ForOverwrite(rows, key.n)
	r0 := 0
	for _, c := range live {
		for r := 0; r < c.a.Rows; r++ {
			copy(stacked.Row(r0+r), c.a.Row(r))
		}
		r0 += c.a.Rows
		b.met.queueWait.Observe(now.Sub(c.arrived).Seconds())
	}

	wb, weightKept := b.weightBuffer(key, g.b)
	ab := b.gx.CreateMatrixBuffer(stacked)
	var to gptpu.TaskObserver
	var riders fanObs
	for _, c := range live {
		if c.rt != nil {
			riders = append(riders, c.rt)
		}
	}
	if len(riders) > 0 {
		attr := fmt.Sprintf("riders=%d rows=%d", len(live), rows)
		for _, t := range riders {
			t.ObserveEvent("batched", attr, false)
		}
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
	tensor.PutF32(stacked)
	if !weightKept {
		tensor.PutF32(g.b)
	}

	b.met.batches.Inc()
	b.met.batchSize.Observe(float64(len(live)))
	b.met.batchedReqs.Add(float64(len(live)))

	if err != nil {
		res := callResult{err: mapRuntimeErr(err)}
		for _, c := range live {
			c.done <- res
		}
		return
	}
	// Each rider gets its own copy of its row band (the handler encodes
	// it and returns it to the pool); only then may the stacked result go.
	r0 = 0
	for _, c := range live {
		band := tensor.GetF32ForOverwrite(c.a.Rows, key.k)
		band.CopyFrom(out.View(r0, 0, c.a.Rows, key.k))
		r0 += c.a.Rows
		c.done <- callResult{m: band}
	}
	tensor.PutF32(out)
}
