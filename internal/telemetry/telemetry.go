// Package telemetry is the runtime metrics subsystem of the GPTPU
// reproduction: a stdlib-only registry of counters, gauges and
// fixed-bucket histograms that every layer of the stack (scheduler,
// Tensorizer, Edge TPU devices, PCIe links) records into, with
// snapshot export in the Prometheus text format.
//
// The paper diagnoses each application through exactly these numbers —
// per-instruction RPS/OPS counts (Table 1), data-exchange occupancy
// (section 3.2), transfer-bound vs compute-bound breakdowns (section
// 9.1) — so the runtime exposes them uniformly instead of through
// ad-hoc structs. Metrics carry two time dimensions: virtual-time
// latencies from the simulated machine (suffix "_vseconds") and real
// wall time spent by the host runtime (suffix "_seconds").
//
// All types are safe for concurrent use; the hot-path cost of one
// observation is an atomic add (plus one atomic add per histogram
// bucket search step).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType enumerates the metric kinds the registry supports.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Desc describes one registered metric family for catalogs and
// export headers.
type Desc struct {
	Name   string
	Help   string
	Type   MetricType
	Labels []string
}

// Registry holds metric families keyed by name. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted registration index for deterministic export

	hookMu sync.Mutex
	hooks  []func()
}

// AddSnapshotHook registers fn to run at the start of every Snapshot
// call, before any family is read. Pull-model exporters (windowed
// quantiles, derived gauges) use it to publish fresh values exactly
// when a scrape happens instead of on a timer. Hooks run outside the
// registry locks, in registration order, and must not block.
func (r *Registry) AddSnapshotHook(fn func()) {
	if fn == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

func (r *Registry) runHooks() {
	r.hookMu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and one child
// per observed label-value combination.
type family struct {
	desc    Desc
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu       sync.Mutex
	children map[string]metric
	order    []string
}

type metric interface {
	write(s *Sample)
}

func (r *Registry) register(d Desc, buckets []float64) *family {
	if d.Name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[d.Name]; ok {
		if f.desc.Type != d.Type || len(f.desc.Labels) != len(d.Labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with different schema", d.Name))
		}
		return f
	}
	f := &family{desc: d, buckets: buckets, children: make(map[string]metric)}
	r.families[d.Name] = f
	i := sort.SearchStrings(r.names, d.Name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = d.Name
	return f
}

// child returns (creating if needed) the family member for the given
// label values, using make to construct new members.
func (f *family) child(labelValues []string, make func() metric) metric {
	if len(labelValues) != len(f.desc.Labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.desc.Name, len(f.desc.Labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = make()
		f.children[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter is a monotonically-increasing float64 value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0; negative deltas are ignored to keep the
// counter monotone).
func (c *Counter) Add(v float64) {
	if v < 0 || c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) write(s *Sample) { s.Value = c.Value() }

// Gauge is an arbitrarily-settable float64 value (queue depths,
// occupancy).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(s *Sample) { s.Value = g.Value() }

// Histogram counts observations into fixed buckets (cumulative on
// export, per-bucket internally) and tracks count and sum.
type Histogram struct {
	bounds  []float64 // sorted upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) write(s *Sample) {
	hs := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		hs.Counts[i] = cum
	}
	s.Hist = hs
}

// Counter registers (or fetches) a counter family and returns the
// handle factory. With no label names the family has exactly one
// member, returned by With().
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	f := r.register(Desc{Name: name, Help: help, Type: TypeCounter, Labels: labelNames}, nil)
	return &CounterVec{f: f}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	f := r.register(Desc{Name: name, Help: help, Type: TypeGauge, Labels: labelNames}, nil)
	return &GaugeVec{f: f}
}

// Histogram registers (or fetches) a histogram family over the given
// bucket upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket", name))
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	f := r.register(Desc{Name: name, Help: help, Type: TypeHistogram, Labels: labelNames}, b)
	return &HistogramVec{f: f}
}

// CounterVec is a counter family handle.
type CounterVec struct{ f *family }

// With returns the member for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family handle.
type GaugeVec struct{ f *family }

// With returns the member for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() metric { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family handle.
type HistogramVec struct{ f *family }

// With returns the member for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	f := v.f
	return f.child(labelValues, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// ExpBuckets returns n exponentially-spaced bucket bounds starting at
// start with the given growth factor — the standard latency ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Label is one name=value pair of a sample.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Sample is one exported family member: its label values plus either a
// scalar value (counter, gauge) or a histogram snapshot.
type Sample struct {
	Labels []Label       `json:"labels,omitempty"`
	Value  float64       `json:"value"`
	Hist   *HistSnapshot `json:"histogram,omitempty"`
}

// HistSnapshot is a histogram's exported state: cumulative counts per
// bucket (Counts[i] counts observations <= Bounds[i]; the final entry
// is the +Inf bucket and equals Count).
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// MetricSnapshot is one family's exported state.
type MetricSnapshot struct {
	Name    string     `json:"name"`
	Help    string     `json:"help"`
	Type    MetricType `json:"type"`
	Samples []Sample   `json:"samples"`
}

// Snapshot captures every registered family in name order; members
// within a family appear in first-use order, making repeated exports
// of a quiesced registry byte-identical.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.runHooks()
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	out := make([]MetricSnapshot, 0, len(fams))
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.desc.Name, Help: f.desc.Help, Type: f.desc.Type}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]metric, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			s := Sample{}
			if len(f.desc.Labels) > 0 {
				vals := strings.Split(k, "\x00")
				for j, name := range f.desc.Labels {
					s.Labels = append(s.Labels, Label{Name: name, Value: vals[j]})
				}
			}
			children[i].write(&s)
			ms.Samples = append(ms.Samples, s)
		}
		out = append(out, ms)
	}
	return out
}

// Catalog lists every registered metric family (without values), the
// discovery surface gptpu-info prints.
func (r *Registry) Catalog() []Desc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Desc, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.families[n].desc)
	}
	return out
}
