// Package obs is the per-request observability layer of the serving
// path: end-to-end trace waterfalls, windowed SLO quantiles, and a
// flight recorder for postmortems.
//
// The GPTPU paper diagnoses every workload by decomposing where time
// goes (data exchange vs compute, per-instruction latency — §3.2,
// §9.1). The serving stack needs the same decomposition per request:
// a GEMM that took 40ms could have spent it shed-retrying admission,
// parked behind a running micro-batch, queued behind a long OPQ
// backlog, or re-charging after the fault injector killed its device. Each
// request owns a Trace — an append-only list of closed spans (stage,
// start, duration, attribute) plus point events (fault annotations,
// retry notes) — built with one short mutex hold per record so the
// hot path stays cheap. Traces flow into a Recorder: a bounded ring
// of completed waterfalls, the set of in-flight requests, windowed
// per-stage quantiles published through telemetry, and capture
// snapshots frozen at the moment of a fault or drain.
//
// Everything is nil-safe: a nil *Trace or nil *Recorder turns every
// method into a no-op, so call sites need no "if tracing enabled"
// branches.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names of the request waterfall, in pipeline order. Core
// records queue_wait/charge/exec through the TaskObserver interface
// using these same strings (kept as literals there so core does not
// depend on obs).
const (
	StageRouteDecode  = "route_decode"  // router: placement key from the payload
	StageRouteForward = "route_forward" // router: one forward attempt to a member
	StageDecode       = "decode"        // server: payload decode + validation
	StageAdmission    = "admission"     // server: admission-control decision
	StageBatchWait    = "batch_wait"    // server: from joining the micro-batcher to its reply
	StageQueueWait    = "queue_wait"    // engine: OPQ instruction-queue wait
	StageCharge       = "charge"        // engine: device charge incl. fault retries
	StageExec         = "exec"          // engine: functional execution
	StageNode         = "node"          // engine: one dataflow-graph node, end to end
	StageRuntime      = "runtime"       // server: enqueue → task completion wall time
	StageReplyEncode  = "reply_encode"  // server: result reply encode
	StageTotal        = "total"         // arrival → reply written
)

// Span is one closed (or, in dumps, still-open) stage interval of a
// request, timed in microseconds relative to the trace start.
type Span struct {
	Stage   string  `json:"stage"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Attr    string  `json:"attr,omitempty"`
	Open    bool    `json:"open,omitempty"` // true only in dumps of in-flight requests
}

// Event is a point annotation on a request: fault-injector hits,
// retry/backoff notes, batch membership.
type Event struct {
	AtUS  float64 `json:"at_us"`
	Name  string  `json:"name"`
	Attr  string  `json:"attr,omitempty"`
	Fault bool    `json:"fault,omitempty"`
}

// Per-trace record caps: a pathological request (hundreds of charge
// retries) must not grow its trace without bound. Overflow is counted
// in TraceRec.Dropped rather than silently discarded.
const (
	maxSpans  = 96
	maxEvents = 64
)

// Trace accumulates one request's waterfall. Created by
// Recorder.Start; all methods are safe for concurrent use and no-ops
// on a nil receiver.
type Trace struct {
	rec   *Recorder
	id    uint64
	reqID uint64
	op    string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	events  []Event
	open    []openSpan
	dropped int
	done    bool
	status  string
	end     time.Time
}

type openSpan struct {
	stage string
	attr  string
	start time.Time
}

// ID returns the trace ID (0 on a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

func (t *Trace) usSince(at time.Time) float64 {
	return float64(at.Sub(t.start).Nanoseconds()) / 1e3
}

// ObserveSpan records a closed stage interval. It implements the
// core TaskObserver contract, so engine workers feed
// queue_wait/charge/exec spans here directly.
func (t *Trace) ObserveSpan(stage string, start time.Time, d time.Duration, attr string) {
	if t == nil || d < 0 {
		return
	}
	t.mu.Lock()
	t.addSpanLocked(Span{Stage: stage, StartUS: t.usSince(start), DurUS: float64(d.Nanoseconds()) / 1e3, Attr: attr})
	t.mu.Unlock()
}

func (t *Trace) addSpanLocked(sp Span) {
	if t.done || len(t.spans) >= maxSpans {
		if !t.done {
			t.dropped++
		}
		return
	}
	t.spans = append(t.spans, sp)
}

// ObserveEvent records a point annotation. fault marks the event as a
// fault-injector consequence and (rate-limited) freezes a capture of
// all in-flight requests in the recorder, so a postmortem dump shows
// what the fault interrupted. Implements the core TaskObserver
// contract.
func (t *Trace) ObserveEvent(name, attr string, fault bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done && len(t.events) < maxEvents {
		t.events = append(t.events, Event{AtUS: t.usSince(time.Now()), Name: name, Attr: attr, Fault: fault})
	} else if !t.done {
		t.dropped++
	}
	t.mu.Unlock()
	if fault && t.rec != nil {
		t.rec.noteFault(name)
	}
}

// Begin opens a long-running stage (batch_wait). A later End
// closes it; if the request finishes first, Finish closes it at the
// finish instant. Dumps taken in between render it with Open: true.
func (t *Trace) Begin(stage, attr string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.open = append(t.open, openSpan{stage: stage, attr: attr, start: time.Now()})
	}
	t.mu.Unlock()
}

// End closes the most recent open span with the given stage.
func (t *Trace) End(stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i].stage == stage {
			o := t.open[i]
			t.open = append(t.open[:i], t.open[i+1:]...)
			t.addSpanLocked(Span{Stage: o.stage, StartUS: t.usSince(o.start), DurUS: float64(now.Sub(o.start).Nanoseconds()) / 1e3, Attr: o.attr})
			break
		}
	}
	t.mu.Unlock()
}

// Finish seals the trace with a terminal status ("ok", "shed",
// "deadline", ...), closes any still-open spans, appends the total
// span, feeds the per-stage quantile windows, and moves the trace
// from the recorder's in-flight set into the completed ring. Repeated
// calls are no-ops.
func (t *Trace) Finish(status string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	for _, o := range t.open {
		t.addSpanLocked(Span{Stage: o.stage, StartUS: t.usSince(o.start), DurUS: float64(now.Sub(o.start).Nanoseconds()) / 1e3, Attr: o.attr})
	}
	t.open = nil
	total := now.Sub(t.start)
	t.addSpanLocked(Span{Stage: StageTotal, StartUS: 0, DurUS: float64(total.Nanoseconds()) / 1e3})
	// Per-stage sums for the quantile windows: a request with three
	// charge attempts contributes one charge observation (their sum),
	// matching "where did this request's latency go".
	sums := make(map[string]float64, 8)
	for _, sp := range t.spans {
		sums[sp.Stage] += sp.DurUS / 1e6
	}
	t.done = true
	t.status = status
	t.end = now
	t.mu.Unlock()
	if t.rec != nil {
		t.rec.finish(t, status, sums)
	}
}

// TraceRec is the JSON form of one trace in a flight dump.
type TraceRec struct {
	TraceID string    `json:"trace_id"`
	ReqID   uint64    `json:"req_id,omitempty"`
	Op      string    `json:"op,omitempty"`
	Start   time.Time `json:"start"`
	Status  string    `json:"status,omitempty"` // empty while in flight
	TotalUS float64   `json:"total_us"`
	Spans   []Span    `json:"spans,omitempty"`
	Events  []Event   `json:"events,omitempty"`
	Dropped int       `json:"dropped,omitempty"`
}

// record snapshots the trace at now. Open spans of an in-flight trace
// are rendered with their elapsed duration and Open: true; a finished
// trace has none by construction, which is the consistency invariant
// the race test asserts.
func (t *Trace) record(now time.Time) TraceRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := TraceRec{
		TraceID: FormatID(t.id),
		ReqID:   t.reqID,
		Op:      t.op,
		Start:   t.start,
		Status:  t.status,
		Dropped: t.dropped,
		Spans:   append([]Span(nil), t.spans...),
		Events:  append([]Event(nil), t.events...),
	}
	if t.done {
		rec.TotalUS = float64(t.end.Sub(t.start).Nanoseconds()) / 1e3
	} else {
		// A trace started between the dump's timestamp and this snapshot
		// would read a (slightly) negative elapsed time; clamp to zero —
		// it genuinely has ~no elapsed time yet.
		rec.TotalUS = max(t.usSince(now), 0)
		for _, o := range t.open {
			rec.Spans = append(rec.Spans, Span{Stage: o.stage, StartUS: t.usSince(o.start), DurUS: max(float64(now.Sub(o.start).Nanoseconds())/1e3, 0), Attr: o.attr, Open: true})
		}
	}
	return rec
}

// Trace IDs: unique, non-zero, cheap. A process-random base (crypto,
// falling back to the clock) mixed through splitmix64 with a counter
// gives collision-resistant IDs without coordination; zero is
// reserved for "no trace attached" on the wire.
var (
	idSeq  atomic.Uint64
	idBase = func() uint64 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() uint64 {
	for {
		x := idBase + idSeq.Add(1)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// FormatID renders a trace ID the way logs and dumps spell it.
func FormatID(id uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
