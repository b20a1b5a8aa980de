package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

func tracedTimeline(t *testing.T) *timing.Timeline {
	t.Helper()
	tl := timing.NewTimeline()
	tl.EnableTrace()
	a := tl.NewResource("edgetpu0")
	b := tl.NewResource("pcie-dev0-link")
	b.Acquire(0, 4*time.Millisecond)
	a.Acquire(4*time.Millisecond, 2*time.Millisecond)
	b.Acquire(6*time.Millisecond, 1*time.Millisecond)
	tl.Observe(7 * time.Millisecond)
	return tl
}

func decode(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestExportChromeFormat(t *testing.T) {
	tl := tracedTimeline(t)
	var buf bytes.Buffer
	n, err := Write(&buf, []*timing.Timeline{tl}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("exported %d events, want 3", n)
	}
	arr := decode(t, &buf)
	// 2 process-name + 2 thread-name metadata + 3 complete events.
	if len(arr) != 7 {
		t.Fatalf("got %d records, want 7", len(arr))
	}
	var metas, completes, processNames int
	for _, rec := range arr {
		switch rec["ph"] {
		case "M":
			metas++
			if rec["name"] == "process_name" {
				processNames++
			}
		case "X":
			completes++
			if rec["dur"].(float64) <= 0 {
				t.Fatal("complete event without duration")
			}
		}
	}
	if metas != 4 || completes != 3 || processNames != 2 {
		t.Fatalf("metas=%d completes=%d processNames=%d", metas, completes, processNames)
	}
}

func TestExportWithoutTracing(t *testing.T) {
	tl := timing.NewTimeline()
	tl.NewResource("x").Acquire(0, 1)
	var buf bytes.Buffer
	if _, err := Write(&buf, []*timing.Timeline{tl}, nil); err == nil {
		t.Fatal("expected error when tracing disabled")
	}
}

// TestExportEmptyTimeline: tracing enabled but nothing ran — the
// export must still be a valid (metadata-only) JSON array.
func TestExportEmptyTimeline(t *testing.T) {
	tl := timing.NewTimeline()
	tl.EnableTrace()
	var buf bytes.Buffer
	n, err := Write(&buf, []*timing.Timeline{tl}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty timeline exported %d events", n)
	}
	arr := decode(t, &buf)
	if len(arr) != 2 { // the two process_name records
		t.Fatalf("got %d records, want 2", len(arr))
	}
}

// TestExportSpanArgs: annotated acquisitions carry op/task/bytes args
// and are mirrored onto per-task lifecycle lanes (pid 1).
func TestExportSpanArgs(t *testing.T) {
	tl := timing.NewTimeline()
	tl.EnableTrace()
	dev := tl.NewResource("edgetpu0")
	link := tl.NewResource("pcie-dev0-link")
	tl.Mark("opq", 0, timing.Span{Phase: "enqueue", Task: 7})
	link.AcquireSpan(0, time.Millisecond,
		timing.Span{Phase: "upload", Op: "conv2D", Task: 7, Bytes: 4096})
	dev.AcquireSpan(time.Millisecond, 2*time.Millisecond,
		timing.Span{Phase: "exec", Op: "conv2D", Task: 7})

	var buf bytes.Buffer
	if _, err := Write(&buf, []*timing.Timeline{tl}, nil); err != nil {
		t.Fatal(err)
	}
	arr := decode(t, &buf)

	var taskLane, machineArgs, instants int
	var sawProcessName bool
	for _, rec := range arr {
		if rec["name"] == "process_name" && rec["pid"].(float64) == 1 {
			sawProcessName = true
			if rec["args"].(map[string]any)["name"] != "tasks" {
				t.Fatalf("task process name: %v", rec)
			}
		}
		args, _ := rec["args"].(map[string]any)
		switch rec["ph"] {
		case "X":
			if rec["pid"].(float64) == 1 {
				taskLane++
				if rec["tid"].(float64) != 7 {
					t.Fatalf("task lane tid: %v", rec)
				}
				if args["resource"] == nil {
					t.Fatalf("task-lane slice without resource arg: %v", rec)
				}
			} else if args["op"] == "conv2D" {
				machineArgs++
				if args["task"].(float64) != 7 {
					t.Fatalf("machine slice task arg: %v", rec)
				}
			}
		case "i":
			instants++
			if args["phase"] != "enqueue" {
				t.Fatalf("instant args: %v", rec)
			}
		}
	}
	if !sawProcessName || taskLane != 2 || machineArgs != 2 || instants != 1 {
		t.Fatalf("processName=%v taskLane=%d machineArgs=%d instants=%d",
			sawProcessName, taskLane, machineArgs, instants)
	}
	// The upload slice must carry its byte count.
	var sawBytes bool
	for _, rec := range arr {
		if args, ok := rec["args"].(map[string]any); ok && args["phase"] == "upload" {
			if args["bytes"].(float64) == 4096 {
				sawBytes = true
			}
		}
	}
	if !sawBytes {
		t.Fatal("upload slice lost its bytes arg")
	}
}

// TestExportDeterministicLanes: repeated exports of the same timeline
// must be byte-identical (lane numbering must not depend on map
// iteration order).
func TestExportDeterministicLanes(t *testing.T) {
	tl := timing.NewTimeline()
	tl.EnableTrace()
	// Enough lanes that map iteration order would scramble them.
	for i := 0; i < 12; i++ {
		name := string(rune('a'+11-i)) + "-res"
		tl.NewResource(name).AcquireSpan(0, time.Millisecond,
			timing.Span{Phase: "exec", Op: "add", Task: i + 1})
	}
	var first bytes.Buffer
	if _, err := Write(&first, []*timing.Timeline{tl}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if _, err := Write(&again, []*timing.Timeline{tl}, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("export %d differs from first", i)
		}
	}
	// Lane tids follow sorted resource order.
	arr := decode(t, &first)
	var lastName string
	for _, rec := range arr {
		if rec["name"] == "thread_name" && rec["pid"].(float64) == 0 {
			name := rec["args"].(map[string]any)["name"].(string)
			if lastName != "" && name < lastName {
				t.Fatalf("lanes out of order: %q after %q", name, lastName)
			}
			lastName = name
		}
	}
}

// TestWriteRequestLanes: request records written after a timeline form
// the "requests (wall clock)" process group — one thread per record in
// start order, named with its status or [in-flight], every span and
// mark offset from the earliest start and tagged with its trace ID.
func TestWriteRequestLanes(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	reqs := []obs.TraceRec{
		{TraceID: "00000000aaaaaaaa", Op: "gemm", Start: at(100), Status: "ok", Spans: []obs.Span{
			{Stage: "decode", StartUS: 0, DurUS: 5},
			{Stage: "runtime", StartUS: 10, DurUS: 50},
		}},
		{TraceID: "00000000bbbbbbbb", Op: "route:add", Start: at(0), Spans: []obs.Span{
			{Stage: "route_forward", StartUS: 2, DurUS: 30, Attr: "m1", Open: true},
		}},
		{TraceID: "00000000cccccccc", Op: "conv2d", Start: at(50), Status: "transient",
			Spans:  []obs.Span{{Stage: "charge", StartUS: 1, DurUS: 4}},
			Events: []obs.Event{{AtUS: 3, Name: "transient_fault", Attr: "dev=0", Fault: true}}},
	}
	var buf bytes.Buffer
	n, err := Write(&buf, []*timing.Timeline{tracedTimeline(t)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3+5 { // the timeline's three slices, four spans, one mark
		t.Fatalf("exported %d events, want 8", n)
	}
	type slice struct {
		name    string
		tid     int
		ts, dur float64
		args    map[string]any
		instant bool
	}
	var process string
	threads := map[int]string{}
	var got []slice
	for _, rec := range decode(t, &buf) {
		if rec["pid"].(float64) != 2 {
			continue
		}
		args, _ := rec["args"].(map[string]any)
		tid := int(rec["tid"].(float64))
		switch {
		case rec["name"] == "process_name":
			process = args["name"].(string)
		case rec["name"] == "thread_name":
			threads[tid] = args["name"].(string)
		default:
			s := slice{name: rec["name"].(string), tid: tid, ts: rec["ts"].(float64), args: args, instant: rec["ph"] == "i"}
			if d, ok := rec["dur"].(float64); ok {
				s.dur = d
			}
			got = append(got, s)
		}
	}
	if process != "requests (wall clock)" {
		t.Fatalf("request process name %q", process)
	}
	wantThreads := map[int]string{
		0: "req bbbbbbbb route:add [in-flight]",
		1: "req cccccccc conv2d [transient]",
		2: "req aaaaaaaa gemm [ok]",
	}
	for tid, name := range wantThreads {
		if threads[tid] != name {
			t.Fatalf("thread %d named %q, want %q (all: %v)", tid, threads[tid], name, threads)
		}
	}
	want := []slice{
		{name: "route_forward", tid: 0, ts: 2, dur: 30, args: map[string]any{"trace_id": "00000000bbbbbbbb", "stage": "route_forward", "attr": "m1", "open": true}},
		{name: "charge", tid: 1, ts: 51, dur: 4, args: map[string]any{"trace_id": "00000000cccccccc", "stage": "charge"}},
		{name: "transient_fault", tid: 1, ts: 53, instant: true, args: map[string]any{"trace_id": "00000000cccccccc", "attr": "dev=0", "fault": true}},
		{name: "decode", tid: 2, ts: 100, dur: 5, args: map[string]any{"trace_id": "00000000aaaaaaaa", "stage": "decode"}},
		{name: "runtime", tid: 2, ts: 110, dur: 50, args: map[string]any{"trace_id": "00000000aaaaaaaa", "stage": "runtime"}},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d request slices, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.name != w.name || g.tid != w.tid || g.ts != w.ts || g.dur != w.dur || g.instant != w.instant || len(g.args) != len(w.args) {
			t.Fatalf("slice %d = %+v, want %+v", i, g, w)
		}
		for k, v := range w.args {
			if g.args[k] != v {
				t.Fatalf("slice %d arg %s = %v, want %v", i, k, g.args[k], v)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	tl := tracedTimeline(t)
	sums := Summarize(tl)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	// Sorted by name: edgetpu0 first.
	if !strings.HasPrefix(sums[0].Resource, "edgetpu") {
		t.Fatalf("order: %v", sums[0].Resource)
	}
	if sums[0].Busy != 2*time.Millisecond || sums[0].Ops != 1 {
		t.Fatalf("edgetpu summary %+v", sums[0])
	}
	if sums[1].Busy != 5*time.Millisecond || sums[1].Ops != 2 {
		t.Fatalf("link summary %+v", sums[1])
	}
	if sums[1].Utilization < 0.7 || sums[1].Utilization > 0.72 {
		t.Fatalf("link utilization %v, want ~5/7", sums[1].Utilization)
	}
}

// TestSummarizeEmptyTimeline: no events means no summaries, not a
// panic or a nil-map surprise.
func TestSummarizeEmptyTimeline(t *testing.T) {
	tl := timing.NewTimeline()
	tl.EnableTrace()
	if sums := Summarize(tl); len(sums) != 0 {
		t.Fatalf("empty timeline summaries: %+v", sums)
	}
}

// TestSummarizeZeroMakespan: zero-duration marks are ignored, and a
// timeline whose makespan is zero yields zero utilization (not NaN or
// a divide-by-zero panic).
func TestSummarizeZeroMakespan(t *testing.T) {
	tl := timing.NewTimeline()
	tl.EnableTrace()
	tl.NewResource("idle")
	tl.Mark("opq", 0, timing.Span{Phase: "enqueue", Task: 1})
	sums := Summarize(tl)
	if len(sums) != 0 {
		t.Fatalf("marks must not count as occupancy: %+v", sums)
	}
	if mk := tl.Makespan(); mk != 0 {
		t.Fatalf("makespan %v, want 0", mk)
	}
}

// TestSummarizeDeterministicOrder: lane ordering is stable across
// repeated summaries regardless of event arrival order.
func TestSummarizeDeterministicOrder(t *testing.T) {
	tl := timing.NewTimeline()
	tl.EnableTrace()
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		tl.NewResource(name).Acquire(0, time.Millisecond)
	}
	first := Summarize(tl)
	for i := 1; i < len(first); i++ {
		if first[i].Resource < first[i-1].Resource {
			t.Fatalf("unsorted: %q after %q", first[i].Resource, first[i-1].Resource)
		}
	}
	for rep := 0; rep < 5; rep++ {
		again := Summarize(tl)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("rep %d order drift: %+v vs %+v", rep, again[i], first[i])
			}
		}
	}
}
