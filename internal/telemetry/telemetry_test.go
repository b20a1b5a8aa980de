package telemetry

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("execs_total", "instructions executed").With()
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after negative add = %v, want 3.5", got)
	}
	g := r.Gauge("depth", "queue depth").With()
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.001, 0.01, 0.1}).With()
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5, 0.01} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	snap := r.Snapshot()
	hs := snap[0].Samples[0].Hist
	// Cumulative: <=0.001 -> 1, <=0.01 -> 3 (0.01 lands in its own
	// bucket inclusively), <=0.1 -> 4, +Inf -> 5.
	want := []uint64{1, 3, 4, 5}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if math.Abs(hs.Sum-0.5655) > 1e-9 {
		t.Fatalf("sum = %v", hs.Sum)
	}
}

func TestLabelledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("device_execs_total", "per-device execs", "device")
	v.With("0").Add(5)
	v.With("1").Add(7)
	v.With("0").Inc()
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Samples) != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s0 := snap[0].Samples[0]
	if s0.Labels[0] != (Label{"device", "0"}) || s0.Value != 6 {
		t.Fatalf("sample 0: %+v", s0)
	}
}

func TestReregisterSameSchemaSharesFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").With().Add(2)
	r.Counter("x_total", "x").With().Add(3)
	if got := r.Counter("x_total", "x").With().Value(); got != 5 {
		t.Fatalf("shared counter = %v, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("gptpu_execs_total", "total instructions", "device").With("0").Add(42)
	r.Gauge("gptpu_opq_depth", "pending tasks").With().Set(3)
	hv := r.Histogram("gptpu_op_vseconds", "virtual latency", []float64{0.01, 1}, "op")
	hv.With("conv2D").Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP gptpu_execs_total total instructions",
		"# TYPE gptpu_execs_total counter",
		`gptpu_execs_total{device="0"} 42`,
		"# TYPE gptpu_opq_depth gauge",
		"gptpu_opq_depth 3",
		"# TYPE gptpu_op_vseconds histogram",
		`gptpu_op_vseconds_bucket{op="conv2D",le="0.01"} 0`,
		`gptpu_op_vseconds_bucket{op="conv2D",le="1"} 1`,
		`gptpu_op_vseconds_bucket{op="conv2D",le="+Inf"} 1`,
		`gptpu_op_vseconds_sum{op="conv2D"} 0.5`,
		`gptpu_op_vseconds_count{op="conv2D"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestPrometheusHistogramLabelSchemaConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", "h", []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on label arity change")
		}
	}()
	r.Histogram("h", "h", []float64{1}, "op")
}

func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").With().Inc()
	r.Counter("a_total", "").With().Inc()
	v := r.Counter("c_total", "", "k")
	v.With("z").Inc()
	v.With("a").Inc()
	var first bytes.Buffer
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("export %d differs:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
	// Families are name-sorted; members keep first-use order.
	text := first.String()
	if strings.Index(text, "a_total") > strings.Index(text, "b_total") ||
		strings.Index(text, `c_total{k="z"}`) > strings.Index(text, `c_total{k="a"}`) {
		t.Fatalf("ordering wrong:\n%s", text)
	}
}

func TestCatalog(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "last", "device")
	r.Gauge("a_depth", "first")
	cat := r.Catalog()
	if len(cat) != 2 || cat[0].Name != "a_depth" || cat[1].Name != "z_total" {
		t.Fatalf("catalog: %+v", cat)
	}
	if cat[1].Type != TypeCounter || cat[1].Labels[0] != "device" {
		t.Fatalf("catalog desc: %+v", cat[1])
	}
}

// TestConcurrentRegistry exercises every metric kind from many
// goroutines at once; run with -race (the Makefile ci target does) to
// verify the registry's synchronization.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("execs_total", "", "device")
			g := r.Gauge("depth", "")
			h := r.Histogram("lat", "", []float64{0.001, 0.1, 10})
			for i := 0; i < iters; i++ {
				c.With(string(rune('0' + w%4))).Inc()
				g.With().Add(1)
				h.With().Observe(float64(i) / iters)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, s := range r.Snapshot() {
		if s.Name != "execs_total" {
			continue
		}
		for _, smp := range s.Samples {
			total += smp.Value
		}
	}
	if total != workers*iters {
		t.Fatalf("lost increments: %v, want %d", total, workers*iters)
	}
	if got := r.Histogram("lat", "", []float64{0.001, 0.1, 10}).With().Count(); got != workers*iters {
		t.Fatalf("histogram count %d, want %d", got, workers*iters)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").With().Add(7)
	extra := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "extra route") })
	srv, err := Listen("127.0.0.1:0", r, true, map[string]http.Handler{"/debug/extra": extra})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if text := get("/metrics"); !strings.Contains(text, "hits_total 7") {
		t.Fatalf("prometheus endpoint: %q", text)
	}
	if text := get("/debug/extra"); text != "extra route" {
		t.Fatalf("extra route: %q", text)
	}
	if text := get("/debug/pprof/"); !strings.Contains(text, "goroutine") {
		t.Fatalf("pprof index: %q", text)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("buckets %v", b)
		}
	}
}

func TestNilMetricSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}
