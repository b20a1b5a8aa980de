package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call it made
// into a layer. Parent is the index of the causing span in the file
// (-1 for an op or request, the root of its tree); spans of one op
// share OpID. Times are nanoseconds since the traced pass began.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int64  `json:"op_id"`
}

// spanLog keeps the traced pass's spans in memory until the run ends.
// A nil *spanLog records nothing, so the untraced phase calls the same
// code with tracing off.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one closed span and returns its index, for use as the
// parent of its children; -1 when tracing is off.
func (l *spanLog) add(name string, start, end time.Time, parent int, opID int64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name:    name,
		StartNS: start.Sub(l.t0).Nanoseconds(),
		EndNS:   end.Sub(l.t0).Nanoseconds(),
		Parent:  parent,
		OpID:    opID,
	})
	return len(l.spans) - 1
}

// write stores the spans as one JSON array.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	buf, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// reconciled is the per-op decomposition of the traced pass.
type reconciled struct {
	totalP50 float64 // ms: p50 over ops of children + self
	selfP50  float64 // ms: p50 over ops of span − children, floored at 0
}

// reconcile computes, per root span, self time = span − Σ children
// (floored at 0: children are measured as whole calls, so a sum above
// the parent means they do not fit inside it) and returns the p50 of
// children + self, which must agree with the traced latency p50.
func (l *spanLog) reconcile() reconciled {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int]float64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	var totals, selfs []float64
	for i, s := range l.spans {
		if s.Parent >= 0 {
			continue
		}
		self := float64(s.EndNS-s.StartNS)/1e6 - children[i]
		if self < 0 {
			self = 0
		}
		selfs = append(selfs, self)
		totals = append(totals, self+children[i])
	}
	return reconciled{totalP50: median(totals), selfP50: median(selfs)}
}
