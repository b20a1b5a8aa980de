// Package trace exports a recorded virtual-time schedule in the
// Chrome trace-event (catapult) JSON format so that a GPTPU run's
// resource occupancy — host cores, Edge TPU matrix units, PCIe links,
// switch uplinks — can be inspected in chrome://tracing or Perfetto.
// The GPTPU paper diagnoses applications precisely this way (e.g.
// HotSpot3D's transfer-bound profile, section 9.1); this is the
// tooling a user of the framework needs for the same analysis.
//
// The export carries two process groups. Process 0 ("gptpu machine")
// has one lane per hardware resource, exactly as the timeline recorded
// it. Process 1 ("tasks") regroups the annotated events into one lane
// per OPQ task, showing each task's lifecycle — enqueue → tensorize →
// upload → exec → download — as named spans. Every annotated event
// carries an args object (phase, op, task, bytes) so Perfetto's slice
// details identify which operator and task the occupancy belongs to.
// A serving daemon's flight-recorder records join the same file as a
// third group of request lanes, so one view correlates device charging
// with request lifecycles. Write is the one writer.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/timing"
)

// chromeEvent is one trace record; fields beyond name/ph/pid/tid are
// optional depending on the phase type.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts,omitempty"`  // microseconds
	Dur  *float64       `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant-event scope
	Args map[string]any `json:"args,omitempty"` // metadata
}

func us(d timing.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ptr(v float64) *float64 { return &v }

// spanArgs renders an annotated event's metadata for the args field.
func spanArgs(sp timing.Span) map[string]any {
	if sp == (timing.Span{}) {
		return nil
	}
	args := map[string]any{}
	if sp.Phase != "" {
		args["phase"] = sp.Phase
	}
	if sp.Op != "" {
		args["op"] = sp.Op
	}
	if sp.Task != 0 {
		args["task"] = sp.Task
	}
	if sp.Bytes != 0 {
		args["bytes"] = sp.Bytes
	}
	return args
}

// eventName picks the slice label: "phase op" for annotated events
// (what Perfetto shows on the slice), the resource name otherwise.
func eventName(e timing.Event) string {
	sp := e.Span
	switch {
	case sp.Phase != "" && sp.Op != "":
		return sp.Phase + " " + sp.Op
	case sp.Phase != "":
		return sp.Phase
	case sp.Op != "":
		return sp.Op
	}
	return e.Resource
}

// write renders traced timelines and request records as one Chrome
// trace JSON array. Each traced timeline gets a pair of process groups
// (machine lanes and task lanes); with more than one, the pairs are
// numbered ("gptpu machine #k" / "tasks #k") so runs stay visually
// separate in Perfetto. Untraced timelines are skipped. The request
// records (a flight recorder's Dump) follow in one "requests (wall
// clock)" process group with one thread lane per record. Returns the
// number of events written (metadata records excluded).
func write(w io.Writer, tls []*timing.Timeline, reqs []obs.TraceRec) (int, error) {
	var traced [][]timing.Event
	for _, tl := range tls {
		if events := tl.Trace(); events != nil {
			traced = append(traced, events)
		}
	}
	if len(traced) == 0 && len(reqs) == 0 {
		return 0, fmt.Errorf("trace: no traced timelines or request records to export (call EnableTrace before running)")
	}
	var out []any
	for k, events := range traced {
		suffix := ""
		if len(traced) > 1 {
			suffix = " #" + strconv.Itoa(k)
		}
		out = appendTimeline(out, events, 2*k, 2*k+1, suffix)
	}
	out = appendRequests(out, reqs, 2*len(traced))
	n := 0
	for _, rec := range out {
		if rec.(chromeEvent).Ph != "M" {
			n++
		}
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteFile writes Write's trace to the file at path, replacing it,
// and returns the number of events written.
func WriteFile(path string, tls []*timing.Timeline, reqs []obs.TraceRec) (int, error) {
	var b bytes.Buffer
	n, err := write(&b, tls, reqs)
	if err != nil {
		return 0, err
	}
	return n, os.WriteFile(path, b.Bytes(), 0o666)
}

// appendRequests renders request records as lanes of process pid, one
// thread per record in start order. Lane timestamps are wall-clock
// microseconds relative to the earliest start, so arrival spacing is
// preserved and the lanes line up with each other; machine lanes in
// the same file run on virtual time — the two share a file, not a
// clock, which the process name calls out.
func appendRequests(out []any, reqs []obs.TraceRec, pid int) []any {
	if len(reqs) == 0 {
		return out
	}
	reqs = append([]obs.TraceRec(nil), reqs...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Start.Before(reqs[j].Start) })
	epoch := reqs[0].Start
	out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "requests (wall clock)"}})
	for tid, rec := range reqs {
		off := float64(rec.Start.Sub(epoch).Nanoseconds()) / 1e3
		status := rec.Status
		if status == "" {
			status = "in-flight"
		}
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": "req " + rec.TraceID[8:] + " " + rec.Op + " [" + status + "]"}})
		for _, sp := range rec.Spans {
			args := map[string]any{"trace_id": rec.TraceID, "stage": sp.Stage}
			if sp.Attr != "" {
				args["attr"] = sp.Attr
			}
			if sp.Open {
				args["open"] = true
			}
			out = append(out, chromeEvent{Name: sp.Stage, Ph: "X",
				Ts: ptr(off + sp.StartUS), Dur: ptr(sp.DurUS), Pid: pid, Tid: tid, Args: args})
		}
		for _, e := range rec.Events {
			args := map[string]any{"trace_id": rec.TraceID}
			if e.Attr != "" {
				args["attr"] = e.Attr
			}
			if e.Fault {
				args["fault"] = true
			}
			out = append(out, chromeEvent{Name: e.Name, Ph: "i",
				Ts: ptr(off + e.AtUS), Pid: pid, Tid: tid, S: "t", Args: args})
		}
	}
	return out
}

// appendTimeline renders one timeline's events into chrome records
// under the given process-group pair, appending to out.
func appendTimeline(out []any, events []timing.Event, machinePID, taskPID int, suffix string) []any {
	// Machine lanes: one per resource, sorted by name for determinism.
	lanes := map[string]int{}
	var names []string
	// Task lanes: one per annotated task ID, sorted numerically.
	taskSet := map[int]bool{}
	for _, e := range events {
		if e.Start < e.End || e.Span == (timing.Span{}) {
			if _, ok := lanes[e.Resource]; !ok {
				lanes[e.Resource] = 0
				names = append(names, e.Resource)
			}
		}
		if e.Span.Task > 0 {
			taskSet[e.Span.Task] = true
		}
	}
	sort.Strings(names)
	for i, n := range names {
		lanes[n] = i
	}
	var tasks []int
	for t := range taskSet {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)

	out = append(out,
		chromeEvent{Name: "process_name", Ph: "M", Pid: machinePID,
			Args: map[string]any{"name": "gptpu machine" + suffix}},
		chromeEvent{Name: "process_name", Ph: "M", Pid: taskPID,
			Args: map[string]any{"name": "tasks" + suffix}},
	)
	for _, n := range names {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: machinePID, Tid: lanes[n],
			Args: map[string]any{"name": n},
		})
	}
	for _, t := range tasks {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: taskPID, Tid: t,
			Args: map[string]any{"name": "task " + strconv.Itoa(t)},
		})
	}

	for _, e := range events {
		args := spanArgs(e.Span)
		if e.Start == e.End {
			// Zero-duration marks (e.g. a task's enqueue instant)
			// render as thread-scoped instant events on the task lane.
			if e.Span.Task > 0 {
				out = append(out, chromeEvent{
					Name: eventName(e), Ph: "i", Ts: ptr(us(e.Start)),
					Pid: taskPID, Tid: e.Span.Task, S: "t", Args: args,
				})
			}
			continue
		}
		out = append(out, chromeEvent{
			Name: eventName(e), Ph: "X",
			Ts: ptr(us(e.Start)), Dur: ptr(us(e.End - e.Start)),
			Pid: machinePID, Tid: lanes[e.Resource], Args: args,
		})
		if e.Span.Task > 0 {
			// Mirror the slice onto its task's lifecycle lane with the
			// resource it occupied recorded in args.
			targs := map[string]any{"resource": e.Resource}
			for k, v := range args {
				targs[k] = v
			}
			out = append(out, chromeEvent{
				Name: eventName(e), Ph: "X",
				Ts: ptr(us(e.Start)), Dur: ptr(us(e.End - e.Start)),
				Pid: taskPID, Tid: e.Span.Task, Args: targs,
			})
		}
	}
	return out
}
