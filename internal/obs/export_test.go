package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// stageFamily registers the front door's stage histogram shape (one
// family, a stage label, decade buckets from 1 µs to 100 s) on a fresh
// registry.
func stageFamily() (*telemetry.Registry, *telemetry.HistogramVec) {
	reg := telemetry.NewRegistry()
	return reg, reg.Histogram("gptpu_serve_stage_seconds", "Seconds per stage.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100}, "stage")
}

// traceWithStages finishes one trace with the given spans, in order;
// their durations are exact microsecond multiples, so the histogram's
// values are deterministic.
func traceWithStages(r *Recorder, stages *telemetry.HistogramVec, spans []Span) {
	tr := r.Start(0, 1, "gemm")
	base := time.Now()
	for _, sp := range spans {
		tr.ObserveSpan(sp.Stage, base, time.Duration(sp.DurUS)*time.Microsecond, "")
	}
	tr.Finish("ok", stages)
}

// scrape renders reg and keeps the lines that contain every needle
// and no stage="total" (the total is wall-clock time).
func scrape(t *testing.T, reg *telemetry.Registry, needles ...string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
line:
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.Contains(line, `stage="total"`) {
			continue
		}
		for _, n := range needles {
			if !strings.Contains(line, n) {
				continue line
			}
		}
		out = append(out, line)
	}
	return out
}

// TestPrometheusGolden pins what Finish feeds the stage histogram: one
// child per stage in first-seen order, one observation per stage per
// request, and a stage's spans summed into it — three 100 µs charge
// attempts make one 300 µs observation, in the 1 ms bucket.
func TestPrometheusGolden(t *testing.T) {
	reg, stages := stageFamily()
	r := New(Config{})
	for i := 0; i < 100; i++ {
		traceWithStages(r, stages, []Span{
			{Stage: StageDecode, DurUS: 2},
			{Stage: StageQueueWait, DurUS: 5},
			{Stage: StageCharge, DurUS: 100},
			{Stage: StageCharge, DurUS: 100},
			{Stage: StageCharge, DurUS: 100},
			{Stage: StageExec, DurUS: 30},
		})
	}

	want := []string{
		`gptpu_serve_stage_seconds_count{stage="decode"} 100`,
		`gptpu_serve_stage_seconds_count{stage="queue_wait"} 100`,
		`gptpu_serve_stage_seconds_count{stage="charge"} 100`,
		`gptpu_serve_stage_seconds_count{stage="exec"} 100`,
	}
	if got := scrape(t, reg, "_count"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("count lines:\ngot  %q\nwant %q", got, want)
	}
	for stage, want := range map[string]float64{StageDecode: 2e-4, StageQueueWait: 5e-4, StageCharge: 3e-2, StageExec: 3e-3} {
		if got := stages.With(stage).Sum(); got < want*(1-1e-9) || got > want*(1+1e-9) {
			t.Errorf("%s sum = %g s, want %g s", stage, got, want)
		}
	}
	want = []string{
		`gptpu_serve_stage_seconds_bucket{stage="charge",le="1e-06"} 0`,
		`gptpu_serve_stage_seconds_bucket{stage="charge",le="1e-05"} 0`,
		`gptpu_serve_stage_seconds_bucket{stage="charge",le="0.0001"} 0`,
		`gptpu_serve_stage_seconds_bucket{stage="charge",le="0.001"} 100`,
	}
	if got := scrape(t, reg, `stage="charge"`, "_bucket"); strings.Join(got[:4], "\n") != strings.Join(want, "\n") {
		t.Fatalf("charge buckets:\ngot  %q\nwant %q", got[:4], want)
	}
	if got := scrape(t, reg, "# TYPE"); len(got) != 1 || got[0] != "# TYPE gptpu_serve_stage_seconds histogram" {
		t.Fatalf("type lines: %q", got)
	}
	if n := stages.With(StageTotal).Count(); n != 100 {
		t.Fatalf("total count = %d, want one per finished trace (100)", n)
	}
}

// TestPrometheusStableAcrossScrapes: two consecutive scrapes with no
// new traffic render the stage block byte-identically — child order
// must not depend on scrape count or map iteration.
func TestPrometheusStableAcrossScrapes(t *testing.T) {
	reg, stages := stageFamily()
	r := New(Config{})
	for i := 0; i < 10; i++ {
		traceWithStages(r, stages, []Span{{Stage: StageExec, DurUS: 1000}, {Stage: StageCharge, DurUS: 100}})
	}
	a, b := scrape(t, reg), scrape(t, reg)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("scrapes differ:\n--- first\n%s\n--- second\n%s", strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}
