package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Config sizes a Recorder. Zero values pick defaults.
type Config struct {
	// Capacity is the completed-waterfall ring size (default 256).
	Capacity int
}

const (
	defaultCapacity = 256
	quantileWindow  = 2048 // per-stage quantile window, in observations
	maxCaptures     = 8    // bounded postmortem snapshots kept FIFO
	captureInflight = 64   // traces frozen per capture
	captureMinGap   = time.Second
)

// Recorder is the process-wide flight recorder: a bounded ring of the
// last N completed request waterfalls, the live in-flight set,
// windowed per-stage quantiles, and capture snapshots frozen at fault
// or drain moments. A nil *Recorder disables tracing everywhere.
type Recorder struct {
	capacity int
	q        *quantiles

	mu            sync.Mutex
	ring          []*Trace // circular, len == capacity once warm
	next          int
	totalFinished uint64
	inflight      map[*Trace]struct{}
	captures      []Capture
	lastCapture   time.Time

	// Metric handles; nil until Export attaches a registry.
	reqs      *telemetry.CounterVec
	inflightG *telemetry.Gauge
	capsC     *telemetry.CounterVec
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	return &Recorder{
		capacity: cfg.Capacity,
		q:        newQuantiles(quantileWindow),
		inflight: make(map[*Trace]struct{}),
	}
}

// Export registers the recorder's metric families on reg and hooks
// quantile publication into registry snapshots, so every Prometheus
// scrape sees quantiles computed from the window at scrape time.
func (r *Recorder) Export(reg *telemetry.Registry) {
	if r == nil || reg == nil {
		return
	}
	stage := reg.Gauge("gptpu_obs_stage_seconds",
		"Windowed per-stage request latency quantiles (nearest-rank over the trailing observation window).",
		"stage", "quantile")
	r.reqs = reg.Counter("gptpu_obs_requests_total",
		"Traced requests finished, by terminal status.", "status")
	inflight := reg.Gauge("gptpu_obs_inflight", "Traced requests currently in flight.")
	r.inflightG = inflight.With()
	r.capsC = reg.Counter("gptpu_obs_captures_total",
		"Flight-recorder capture snapshots taken, by reason.", "reason")
	reg.AddSnapshotHook(func() {
		r.q.publish(stage)
		r.mu.Lock()
		n := len(r.inflight)
		r.mu.Unlock()
		r.inflightG.Set(float64(n))
	})
}

// Start opens a trace for one request and adds it to the in-flight
// set. A nil recorder (tracing disabled) returns a nil trace, which
// every Trace method accepts.
func (r *Recorder) Start(traceID, reqID uint64, op string) *Trace {
	if r == nil {
		return nil
	}
	if traceID == 0 {
		traceID = NewTraceID()
	}
	t := &Trace{rec: r, id: traceID, reqID: reqID, op: op, start: time.Now()}
	r.mu.Lock()
	r.inflight[t] = struct{}{}
	r.mu.Unlock()
	return t
}

// finish moves a sealed trace into the completed ring and feeds the
// quantile windows. Called by Trace.Finish with no trace lock held.
func (r *Recorder) finish(t *Trace, status string, stageSums map[string]float64) {
	for stage, sec := range stageSums {
		r.q.observe(stage, sec)
	}
	if r.reqs != nil {
		r.reqs.With(status).Inc()
	}
	r.mu.Lock()
	delete(r.inflight, t)
	r.totalFinished++
	if len(r.ring) < r.capacity {
		r.ring = append(r.ring, t)
	} else {
		r.ring[r.next] = t
	}
	r.next = (r.next + 1) % r.capacity
	r.mu.Unlock()
}

// noteFault is called by Trace.ObserveEvent for fault-annotated
// events; it freezes a rate-limited capture of the in-flight set.
func (r *Recorder) noteFault(name string) {
	r.capture("fault:"+name, captureMinGap)
}

// Capture freezes the current in-flight set under the given reason
// (e.g. "drain", "sigquit"). Captures are bounded: at most
// maxCaptures are kept (oldest dropped) and each records at most
// captureInflight traces.
func (r *Recorder) Capture(reason string) {
	if r == nil {
		return
	}
	r.capture(reason, 0)
}

func (r *Recorder) capture(reason string, minGap time.Duration) {
	now := time.Now()
	r.mu.Lock()
	if minGap > 0 && now.Sub(r.lastCapture) < minGap {
		r.mu.Unlock()
		return
	}
	r.lastCapture = now
	traces := make([]*Trace, 0, captureInflight)
	for t := range r.inflight {
		if len(traces) >= captureInflight {
			break
		}
		traces = append(traces, t)
	}
	r.mu.Unlock()

	// Snapshot each trace outside the recorder lock: trace mutexes are
	// leaf locks, and a capture can fire from deep inside the engine's
	// charge path.
	snap := Capture{Reason: reason, At: now, InFlight: make([]TraceRec, 0, len(traces))}
	for _, t := range traces {
		snap.InFlight = append(snap.InFlight, t.record(now))
	}

	r.mu.Lock()
	r.captures = append(r.captures, snap)
	if len(r.captures) > maxCaptures {
		r.captures = append(r.captures[:0], r.captures[len(r.captures)-maxCaptures:]...)
	}
	r.mu.Unlock()
	if r.capsC != nil {
		r.capsC.With(reason).Inc()
	}
}

// Capture is one frozen snapshot of the in-flight set.
type Capture struct {
	Reason   string     `json:"reason"`
	At       time.Time  `json:"at"`
	InFlight []TraceRec `json:"in_flight"`
}

// FlightDump is the JSON postmortem document: the completed ring
// (oldest first), everything in flight at dump time, and any fault or
// drain captures taken along the way.
type FlightDump struct {
	CapturedAt    time.Time  `json:"captured_at"`
	TotalFinished uint64     `json:"total_finished"`
	Completed     []TraceRec `json:"completed"`
	InFlight      []TraceRec `json:"in_flight"`
	Captures      []Capture  `json:"captures,omitempty"`
}

// Dump snapshots the recorder. Traces finishing concurrently may land
// in either the completed or in-flight section (each trace is
// snapshotted atomically, so the section merely reflects which side
// of Finish the snapshot caught).
func (r *Recorder) Dump() FlightDump {
	now := time.Now()
	d := FlightDump{CapturedAt: now}
	if r == nil {
		return d
	}
	r.mu.Lock()
	completed := make([]*Trace, 0, len(r.ring))
	if len(r.ring) < r.capacity {
		completed = append(completed, r.ring...)
	} else {
		completed = append(completed, r.ring[r.next:]...)
		completed = append(completed, r.ring[:r.next]...)
	}
	live := make([]*Trace, 0, len(r.inflight))
	for t := range r.inflight {
		live = append(live, t)
	}
	d.TotalFinished = r.totalFinished
	d.Captures = append([]Capture(nil), r.captures...)
	r.mu.Unlock()

	d.Completed = make([]TraceRec, 0, len(completed))
	for _, t := range completed {
		d.Completed = append(d.Completed, t.record(now))
	}
	d.InFlight = make([]TraceRec, 0, len(live))
	for _, t := range live {
		d.InFlight = append(d.InFlight, t.record(now))
	}
	return d
}

// WriteJSON writes an indented flight dump.
func (r *Recorder) WriteJSON(w io.Writer) error {
	d := r.Dump()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Handler serves the flight dump as JSON — mounted at /debug/flight
// on the metrics listener.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}

// Validate checks a dump's internal consistency: completed entries
// must carry a terminal status and contain no open spans; every span
// needs a stage and a non-negative duration; trace IDs must be
// 16-hex-digit strings. This is both the race test's oracle and the
// -flight-verify implementation.
func Validate(d *FlightDump) error {
	check := func(rec TraceRec, section string, completed bool) error {
		if len(rec.TraceID) != 16 {
			return fmt.Errorf("%s trace %q: malformed trace_id", section, rec.TraceID)
		}
		if _, err := strconv.ParseUint(rec.TraceID, 16, 64); err != nil {
			return fmt.Errorf("%s trace %q: non-hex trace_id", section, rec.TraceID)
		}
		if completed && rec.Status == "" {
			return fmt.Errorf("%s trace %s: completed entry without status", section, rec.TraceID)
		}
		if rec.TotalUS < 0 {
			return fmt.Errorf("%s trace %s: negative total_us %g", section, rec.TraceID, rec.TotalUS)
		}
		for i, sp := range rec.Spans {
			if sp.Stage == "" {
				return fmt.Errorf("%s trace %s: span %d has no stage", section, rec.TraceID, i)
			}
			if sp.DurUS < 0 {
				return fmt.Errorf("%s trace %s: span %d (%s) negative duration %g", section, rec.TraceID, i, sp.Stage, sp.DurUS)
			}
			// The core invariant: once a trace is finished every span is
			// closed; open spans may only appear on in-flight entries.
			if sp.Open && (completed || rec.Status != "") {
				return fmt.Errorf("%s trace %s: finished trace has open span %s", section, rec.TraceID, sp.Stage)
			}
		}
		return nil
	}
	for _, rec := range d.Completed {
		if err := check(rec, "completed", true); err != nil {
			return err
		}
	}
	for _, rec := range d.InFlight {
		if err := check(rec, "in_flight", false); err != nil {
			return err
		}
	}
	for _, c := range d.Captures {
		if c.Reason == "" {
			return fmt.Errorf("capture at %v has no reason", c.At)
		}
		for _, rec := range c.InFlight {
			if err := check(rec, "capture:"+c.Reason, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// FaultAttributed counts traces anywhere in the dump carrying at
// least one fault-annotated event — i.e. requests whose latency the
// dump attributes to a fault-triggered retry or reroute.
func FaultAttributed(d *FlightDump) int {
	n := 0
	count := func(recs []TraceRec) {
		for _, rec := range recs {
			for _, e := range rec.Events {
				if e.Fault {
					n++
					break
				}
			}
		}
	}
	count(d.Completed)
	count(d.InFlight)
	for _, c := range d.Captures {
		count(c.InFlight)
	}
	return n
}
