package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestNilSafety drives every Trace and Recorder method through nil
// receivers: the call sites in core and server carry no "if tracing
// enabled" branches, so nil must be a complete no-op everywhere.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	tr := r.Start(0, 0, "gemm")
	if tr != nil {
		t.Fatal("nil recorder returned a non-nil trace")
	}
	if tr.ID() != 0 {
		t.Fatal("nil trace has a non-zero ID")
	}
	tr.ObserveSpan(StageExec, time.Now(), time.Millisecond, "")
	tr.ObserveEvent("device_lost", "", true)
	tr.Begin(StageWire, "")
	tr.End(StageWire)
	tr.Finish("ok")
	r.Capture("drain")
	d := r.Dump()
	if len(d.Completed) != 0 || len(d.InFlight) != 0 {
		t.Fatal("nil recorder dump is not empty")
	}
	r.Export(telemetry.NewRegistry())
}

// TestTraceIDs: fresh IDs are unique and non-zero; FormatID emits 16
// lowercase hex digits.
func TestTraceIDs(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
		s := FormatID(id)
		if len(s) != 16 || strings.ToLower(s) != s {
			t.Fatalf("FormatID(%x) = %q", id, s)
		}
	}
	if got := FormatID(0xDEADBEEF); got != "00000000deadbeef" {
		t.Fatalf("FormatID(0xDEADBEEF) = %q", got)
	}
}

// TestRingCapacity: the completed ring keeps exactly the last Capacity
// traces, oldest first, while TotalFinished counts everything.
func TestRingCapacity(t *testing.T) {
	r := New(Config{Capacity: 4})
	var ids []string
	for i := 0; i < 10; i++ {
		tr := r.Start(0, uint64(i), "gemm")
		ids = append(ids, FormatID(tr.ID()))
		tr.Finish("ok")
	}
	d := r.Dump()
	if d.TotalFinished != 10 {
		t.Fatalf("TotalFinished = %d, want 10", d.TotalFinished)
	}
	if len(d.Completed) != 4 {
		t.Fatalf("ring holds %d, want 4", len(d.Completed))
	}
	for i, rec := range d.Completed {
		if want := ids[6+i]; rec.TraceID != want {
			t.Fatalf("ring[%d] = %s, want %s (oldest-first order)", i, rec.TraceID, want)
		}
	}
	if len(d.InFlight) != 0 {
		t.Fatalf("%d in-flight after all finished", len(d.InFlight))
	}
	if err := Validate(&d); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSpansInDumps: an unfinished trace renders its Begin'd spans
// with Open: true; Finish closes them so the sealed record has none.
func TestOpenSpansInDumps(t *testing.T) {
	r := New(Config{})
	tr := r.Start(0, 1, "gemm")
	tr.Begin(StageBatchWait, "")

	d := r.Dump()
	if len(d.InFlight) != 1 {
		t.Fatalf("%d in-flight, want 1", len(d.InFlight))
	}
	foundOpen := false
	for _, sp := range d.InFlight[0].Spans {
		if sp.Stage == StageBatchWait && sp.Open {
			foundOpen = true
		}
	}
	if !foundOpen {
		t.Fatal("in-flight dump lacks the open batch_wait span")
	}
	if err := Validate(&d); err != nil {
		t.Fatal(err)
	}

	tr.Finish("ok")
	d = r.Dump()
	if len(d.Completed) != 1 || len(d.InFlight) != 0 {
		t.Fatalf("after finish: %d completed, %d in-flight", len(d.Completed), len(d.InFlight))
	}
	for _, sp := range d.Completed[0].Spans {
		if sp.Open {
			t.Fatalf("finished trace has open span %s", sp.Stage)
		}
		if sp.Stage == StageBatchWait && sp.DurUS < 0 {
			t.Fatalf("closed batch_wait has negative duration %g", sp.DurUS)
		}
	}
	if d.Completed[0].Status != "ok" {
		t.Fatalf("status %q, want ok", d.Completed[0].Status)
	}
}

// TestFinishIdempotent: a second Finish must not double-count the
// trace in the ring or the quantile window.
func TestFinishIdempotent(t *testing.T) {
	r := New(Config{})
	tr := r.Start(0, 1, "gemm")
	tr.Finish("ok")
	tr.Finish("internal")
	d := r.Dump()
	if d.TotalFinished != 1 || len(d.Completed) != 1 {
		t.Fatalf("double finish: TotalFinished=%d, completed=%d", d.TotalFinished, len(d.Completed))
	}
	if d.Completed[0].Status != "ok" {
		t.Fatalf("second Finish overwrote status: %q", d.Completed[0].Status)
	}
}

// TestSpanCapDropCounted: a trace overflowing maxSpans must count its
// drops instead of growing without bound.
func TestSpanCapDropCounted(t *testing.T) {
	r := New(Config{})
	tr := r.Start(0, 1, "gemm")
	start := time.Now()
	for i := 0; i < maxSpans+10; i++ {
		tr.ObserveSpan(StageCharge, start, time.Microsecond, "")
	}
	tr.Finish("ok")
	d := r.Dump()
	rec := d.Completed[0]
	if len(rec.Spans) > maxSpans {
		t.Fatalf("%d spans recorded, cap is %d", len(rec.Spans), maxSpans)
	}
	if rec.Dropped < 10 {
		t.Fatalf("Dropped = %d, want >= 10", rec.Dropped)
	}
}

// TestFaultCapture: a fault-annotated event freezes a capture of the
// in-flight set, rate-limited to one per captureMinGap.
func TestFaultCapture(t *testing.T) {
	r := New(Config{})
	tr := r.Start(0, 1, "gemm")
	tr.ObserveEvent("device_lost", "dev=0 attempt=1 action=reroute", true)
	tr.ObserveEvent("transient_retry", "dev=0 attempt=2", true) // inside min gap: no second capture
	d := r.Dump()
	if len(d.Captures) != 1 {
		t.Fatalf("%d captures, want 1 (rate-limited)", len(d.Captures))
	}
	c := d.Captures[0]
	if c.Reason != "fault:device_lost" {
		t.Fatalf("capture reason %q", c.Reason)
	}
	if len(c.InFlight) != 1 || c.InFlight[0].TraceID != FormatID(tr.ID()) {
		t.Fatalf("capture missed the in-flight trace: %+v", c.InFlight)
	}
	tr.Finish("transient")
	d = r.Dump()
	if got := FaultAttributed(&d); got < 1 {
		t.Fatalf("FaultAttributed = %d, want >= 1", got)
	}
	if err := Validate(&d); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejects: Validate must flag the corruptions it claims
// to catch.
func TestValidateRejects(t *testing.T) {
	good := func() FlightDump {
		r := New(Config{})
		tr := r.Start(0, 1, "gemm")
		tr.ObserveSpan(StageExec, time.Now(), time.Millisecond, "")
		tr.Finish("ok")
		return r.Dump()
	}
	cases := []struct {
		name   string
		mutate func(*FlightDump)
	}{
		{"bad-trace-id", func(d *FlightDump) { d.Completed[0].TraceID = "xyz" }},
		{"non-hex-id", func(d *FlightDump) { d.Completed[0].TraceID = "zzzzzzzzzzzzzzzz" }},
		{"missing-status", func(d *FlightDump) { d.Completed[0].Status = "" }},
		{"open-span-on-completed", func(d *FlightDump) { d.Completed[0].Spans[0].Open = true }},
		{"negative-duration", func(d *FlightDump) { d.Completed[0].Spans[0].DurUS = -1 }},
		{"empty-stage", func(d *FlightDump) { d.Completed[0].Spans[0].Stage = "" }},
		{"capture-no-reason", func(d *FlightDump) { d.Captures = []Capture{{At: time.Now()}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := good()
			if err := Validate(&d); err != nil {
				t.Fatalf("pristine dump invalid: %v", err)
			}
			tc.mutate(&d)
			if err := Validate(&d); err == nil {
				t.Fatal("corrupted dump validated")
			}
		})
	}
}

// TestDumpJSONRoundTrip: WriteJSON output re-parses into an equivalent
// dump that still validates — the -flight-verify contract.
func TestDumpJSONRoundTrip(t *testing.T) {
	r := New(Config{})
	tr := r.Start(0, 7, "conv2d")
	tr.ObserveSpan(StageDecode, time.Now(), 50*time.Microsecond, "")
	tr.ObserveEvent("transient_retry", "dev=1 attempt=1 backoff=2ms", true)
	tr.Finish("ok")
	live := r.Start(0, 8, "gemm")
	live.Begin(StageBatchWait, "")

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if err := Validate(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Completed) != 1 || len(d.InFlight) != 1 {
		t.Fatalf("round trip lost traces: %d completed, %d in-flight", len(d.Completed), len(d.InFlight))
	}
	// The fault event shows up both on the completed trace and inside
	// the capture it triggered, so the count is at least 1, not exactly.
	if FaultAttributed(&d) < 1 {
		t.Fatalf("FaultAttributed = %d after round trip", FaultAttributed(&d))
	}
	live.Finish("ok")
}

// TestQuantileNearestRank pins the quantile estimator to the
// nearest-rank definition on a known population.
func TestQuantileNearestRank(t *testing.T) {
	q := newQuantiles(1000)
	for i := 1; i <= 100; i++ {
		q.observe("exec", float64(i))
	}
	reg := telemetry.NewRegistry()
	g := reg.Gauge("t", "h", "stage", "quantile")
	q.publish(g)
	want := map[string]float64{"0.5": 50, "0.99": 99, "0.999": 100}
	for ql, w := range want {
		if got := g.With("exec", ql).Value(); got != w {
			t.Fatalf("p%s = %g, want %g", ql, got, w)
		}
	}
}

// TestQuantileWindowSlides: the window keeps only the trailing N
// observations, so a burst of slow requests ages out.
func TestQuantileWindowSlides(t *testing.T) {
	q := newQuantiles(10)
	for i := 0; i < 10; i++ {
		q.observe("exec", 100) // slow era
	}
	for i := 0; i < 10; i++ {
		q.observe("exec", 1) // fast era fully replaces it
	}
	reg := telemetry.NewRegistry()
	g := reg.Gauge("t", "h", "stage", "quantile")
	q.publish(g)
	if got := g.With("exec", "0.99").Value(); got != 1 {
		t.Fatalf("p99 = %g after window slid, want 1", got)
	}
}

// TestConcurrentTracesRace hammers one recorder from many goroutines
// — spans, events, captures, dumps — and validates every dump taken
// while traffic is live. Run with -race this is the flight-recorder
// consistency test the issue asks for.
func TestConcurrentTracesRace(t *testing.T) {
	r := New(Config{Capacity: 32})
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	dumperDone := make(chan struct{})
	dumpErr := make(chan error, 1)

	go func() { // concurrent dumper: every dump must validate
		defer close(dumperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := r.Dump()
			if err := Validate(&d); err != nil {
				select {
				case dumpErr <- err:
				default:
				}
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := r.Start(0, uint64(i), "gemm")
				tr.Begin(StageWire, "")
				tr.ObserveSpan(StageQueueWait, time.Now(), time.Microsecond, "")
				if i%7 == 0 {
					tr.ObserveEvent("transient_retry", "dev=0 attempt=1", true)
				}
				tr.End(StageWire)
				tr.Finish("ok")
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-dumperDone
	select {
	case err := <-dumpErr:
		t.Fatal(err)
	default:
	}

	d := r.Dump()
	if err := Validate(&d); err != nil {
		t.Fatal(err)
	}
	if d.TotalFinished != workers*perWorker {
		t.Fatalf("TotalFinished = %d, want %d", d.TotalFinished, workers*perWorker)
	}
}
