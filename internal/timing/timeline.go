// Package timing is the virtual-time engine of the reproduction.
//
// Real Edge TPU hardware is unavailable (the paper's testbed is 8x M.2
// devices behind PCIe switches), so every component of the simulated
// platform — CPU cores, Edge TPUs, PCIe links, GPUs — is modelled as a
// Resource with an availability timeline. Operations charge durations
// computed from the calibrated cost model in params.go; the resulting
// makespans reproduce the paper's relative performance results, while
// functional correctness is computed separately with real arithmetic.
package timing

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Duration is virtual time. It uses time.Duration's nanosecond
// resolution.
type Duration = time.Duration

// Resource is a serially-occupied hardware unit (one CPU core, one
// Edge TPU, one PCIe link, ...). Acquiring it models queueing: work
// starts no earlier than its ready time and occupies the first idle
// gap long enough to hold it, so late-ready work never falsely delays
// earlier-ready work scheduled afterwards (tasks charge virtual time
// out of order).
type Resource struct {
	Name string

	mu        sync.Mutex
	intervals []ival // busy intervals: sorted, disjoint, coalesced
	// gapMax[b] bounds from above the idle gaps before the intervals
	// of block b (intervals b*gapBlock up to (b+1)*gapBlock-1), where
	// the gap before interval i is intervals[i].start -
	// intervals[i-1].end and interval 0 has none. First fit skips every
	// block whose bound is shorter than the work; a search that scans a
	// whole block without a fit tightens its bound to the block's
	// longest gap. The extra entry serves the interval that triggers a
	// freeze.
	gapMax [maxIntervals/gapBlock + 1]Duration
	busy   Duration
	ops    int64
	trace  *traceBuf // nil unless the timeline enabled tracing
}

type ival struct{ start, end Duration }

// Acquire schedules d units of work that becomes ready at ready and
// returns the interval [start, end) the work occupies.
func (r *Resource) Acquire(ready, d Duration) (start, end Duration) {
	return r.AcquireSpan(ready, d, Span{})
}

// AcquireSpan is Acquire with task-lifecycle annotation: the recorded
// trace event (if tracing is enabled) carries sp so exports can show
// which pipeline phase, operator and task the occupancy belongs to.
func (r *Resource) AcquireSpan(ready, d Duration, sp Span) (start, end Duration) {
	if d < 0 {
		panic(fmt.Sprintf("timing: negative duration %v on %s", d, r.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	r.busy += d
	if d == 0 {
		return ready, ready
	}
	i, start := r.firstFit(ready, d)
	end = start + d
	// Insert [start, end) at position i, coalescing with touching
	// neighbours to keep the interval list short.
	lo, hi := i, i
	ns, ne := start, end
	if lo > 0 && r.intervals[lo-1].end == ns {
		lo--
		ns = r.intervals[lo].start
	}
	if hi < len(r.intervals) && r.intervals[hi].start == ne {
		ne = r.intervals[hi].end
		hi++
	}
	merged := ival{ns, ne}
	// Keep every block's gapMax an upper bound: a gap that shrinks
	// leaves it valid, while a new gap, and every gap a shift carries
	// into another block, raises it.
	switch {
	case lo == len(r.intervals):
		r.intervals = append(r.intervals, merged)
		r.raise(lo)
	case hi == lo:
		r.intervals = append(r.intervals, ival{})
		copy(r.intervals[lo+1:], r.intervals[lo:])
		r.intervals[lo] = merged
		r.raise(lo)
		// From lo+1 on the gaps moved up one: each later block takes in
		// the last gap of the block before it.
		for j := lo + 1; j < len(r.intervals); j = (j/gapBlock + 1) * gapBlock {
			r.raise(j)
		}
	default:
		r.intervals[lo] = merged
		r.intervals = append(r.intervals[:lo+1], r.intervals[hi:]...)
		if hi-lo == 2 {
			// Merged on both sides: from lo+1 on the gaps moved down one,
			// so each block from there takes in the first gap of the
			// block after it.
			for j := (lo+1)/gapBlock*gapBlock + gapBlock - 1; j < len(r.intervals); j += gapBlock {
				r.raise(j)
			}
		}
	}
	// Bound the schedule history: heavily fragmented resources (e.g. a
	// PCIe link interleaving millions of uploads and downloads) would
	// otherwise make every gap search linear in the total operation
	// count. Old gaps are frozen into one solid busy prefix — slightly
	// pessimistic for stragglers that could have squeezed into ancient
	// idle slivers, irrelevant for the makespan.
	if len(r.intervals) > maxIntervals {
		cut := len(r.intervals) - keepIntervals
		r.intervals[cut-1] = ival{r.intervals[0].start, r.intervals[cut-1].end}
		n := copy(r.intervals[0:], r.intervals[cut-1:])
		r.intervals = r.intervals[:n]
		r.reindex()
	}
	if r.trace != nil {
		r.trace.add(Event{Resource: r.Name, Start: start, End: end, Span: sp})
	}
	return start, end
}

const (
	// maxIntervals triggers history freezing; keepIntervals is how
	// much recent schedule detail survives it.
	maxIntervals  = 256
	keepIntervals = 128
	// gapBlock is how many intervals one gapMax entry summarises.
	gapBlock = 16
)

// firstFit returns where work of duration d > 0 ready at ready starts:
// at ready when it fits before the first interval that ends after
// ready, else at the end of the interval before the first later gap
// of at least d, else after the last interval. i is the position the
// work takes in the interval list. It is the linear walk from ready
// through the gaps, with gapMax skipping every block too short for d.
func (r *Resource) firstFit(ready, d Duration) (i int, start Duration) {
	iv := r.intervals
	i = sort.Search(len(iv), func(i int) bool { return iv[i].end > ready })
	if i == len(iv) || ready+d <= iv[i].start {
		return i, ready
	}
	for b := (i + 1) / gapBlock; b*gapBlock < len(iv); b++ {
		if r.gapMax[b] < d {
			continue
		}
		j0 := max(b*gapBlock, i+1)
		var longest Duration
		for j := j0; j < min((b+1)*gapBlock, len(iv)); j++ {
			g := iv[j].start - iv[j-1].end
			if g >= d {
				return j, iv[j-1].end
			}
			longest = max(longest, g)
		}
		if j0 == max(b*gapBlock, 1) {
			r.gapMax[b] = longest
		}
	}
	return len(iv), iv[len(iv)-1].end
}

// raise lifts the bound of the block holding gap j to cover it. A
// block the list grows back into after shrinking out of it keeps its
// old bound, which covers its gaps once raised and may be too high
// until a search tightens it.
func (r *Resource) raise(j int) {
	if j > 0 && j < len(r.intervals) {
		b := j / gapBlock
		r.gapMax[b] = max(r.gapMax[b], r.intervals[j].start-r.intervals[j-1].end)
	}
}

// reindex sets every block's bound to its longest gap (0 past the end
// of the list).
func (r *Resource) reindex() {
	iv := r.intervals
	for b := range r.gapMax {
		var longest Duration
		for j := max(b*gapBlock, 1); j < min((b+1)*gapBlock, len(iv)); j++ {
			longest = max(longest, iv[j].start-iv[j-1].end)
		}
		r.gapMax[b] = longest
	}
}

// AvailableAt returns the time after which the resource is guaranteed
// idle (earlier gaps may also exist).
func (r *Resource) AvailableAt() Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
}

// BusyTime returns the total time the resource has been occupied.
func (r *Resource) BusyTime() Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// Ops returns the number of acquisitions.
func (r *Resource) Ops() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}

// reset clears the resource's schedule.
func (r *Resource) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.intervals, r.busy, r.ops = nil, 0, 0
}

// Timeline owns a set of resources and tracks the overall makespan of
// the work scheduled onto them.
type Timeline struct {
	mu        sync.Mutex
	resources []*Resource
	end       Duration
	trace     *traceBuf
}

// NewTimeline returns an empty timeline at virtual time zero.
func NewTimeline() *Timeline { return &Timeline{} }

// NewResource registers and returns a named resource.
func (t *Timeline) NewResource(name string) *Resource {
	r := &Resource{Name: name}
	t.mu.Lock()
	r.trace = t.trace
	t.resources = append(t.resources, r)
	t.mu.Unlock()
	return r
}

// Observe records the completion time of a scheduled piece of work so
// that the makespan covers it even if later resources idle.
func (t *Timeline) Observe(end Duration) {
	t.mu.Lock()
	if end > t.end {
		t.end = end
	}
	t.mu.Unlock()
}

// Makespan returns the virtual completion time of all observed work.
func (t *Timeline) Makespan() Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	for _, r := range t.resources {
		if b := r.AvailableAt(); b > end {
			end = b
		}
	}
	return end
}

// Resources returns the registered resources.
func (t *Timeline) Resources() []*Resource {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Resource, len(t.resources))
	copy(out, t.resources)
	return out
}

// Reset rewinds the timeline and every resource to time zero. Each
// benchmark run starts from a fresh timeline.
func (t *Timeline) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end = 0
	for _, r := range t.resources {
		r.reset()
	}
}

// Seconds converts a virtual duration to float seconds.
func Seconds(d Duration) float64 { return d.Seconds() }

// FromSeconds converts float seconds to a virtual duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(time.Second)) }

// Span annotates a recorded event with task-lifecycle metadata: which
// pipeline phase it belongs to (enqueue, tensorize, upload, exec,
// download, aggregate), which operator issued it, which OPQ task it
// serves, and how many bytes it moved. The zero value marks an
// unannotated event.
type Span struct {
	Phase string
	Op    string
	Task  int
	Bytes int64
}

// Event is one recorded resource acquisition, for trace export.
type Event struct {
	Resource string
	Start    Duration
	End      Duration
	Span     Span
}

// Mark records a zero-duration annotated event (e.g. a task's enqueue
// instant) directly into the trace when tracing is enabled.
func (t *Timeline) Mark(resource string, at Duration, sp Span) {
	t.mu.Lock()
	tb := t.trace
	t.mu.Unlock()
	if tb != nil {
		tb.add(Event{Resource: resource, Start: at, End: at, Span: sp})
	}
}

// traceBuf collects events when tracing is enabled.
type traceBuf struct {
	mu     sync.Mutex
	events []Event
}

func (tb *traceBuf) add(e Event) {
	tb.mu.Lock()
	tb.events = append(tb.events, e)
	tb.mu.Unlock()
}

// EnableTrace starts recording every subsequent acquisition on every
// resource of this timeline (including resources created later).
// Tracing costs memory proportional to the operation count; it is off
// by default.
func (t *Timeline) EnableTrace() {
	t.mu.Lock()
	if t.trace == nil {
		t.trace = &traceBuf{}
		for _, r := range t.resources {
			r.mu.Lock()
			r.trace = t.trace
			r.mu.Unlock()
		}
	}
	t.mu.Unlock()
}

// Trace returns a copy of the recorded events (nil when tracing was
// never enabled).
func (t *Timeline) Trace() []Event {
	t.mu.Lock()
	tb := t.trace
	t.mu.Unlock()
	if tb == nil {
		return nil
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make([]Event, len(tb.events))
	copy(out, tb.events)
	return out
}
