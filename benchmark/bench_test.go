package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	gptpu "repro"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: not reported
	}{
		{0, 0.99, 0},
		{100, 0.90, 90}, // 10 beyond
		{99, 0.90, 0},   // rank 90 of 99: 9 beyond
		{109, 0.90, 99}, // rank 99 of 109: 10 beyond
		{100, 0.99, 0},  // 1 beyond
		{1000, 0.99, 990},
		{999, 0.99, 0}, // rank 990 of 999: 9 beyond
		{10000, 0.999, 9990},
		{9999, 0.999, 0},
	} {
		got, ok := tailPercentile(seq(c.n), c.q)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("tailPercentile(n=%d, q=%v) = %v, %v; want %v", c.n, c.q, got, ok, c.want)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d q=%v: reported with only %d samples beyond", c.n, c.q, beyond)
			}
		}
	}
}

// The spread printed by -repeat must be the one the driver computes:
// Python's statistics.quantiles(v, n=4), exclusive method.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4, 4}, 2, 4, 4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("relSpread = %v, want 1", s)
	}
}

func TestArrivalsAreSeededSortedAndOfFixedCount(t *testing.T) {
	d := 2 * time.Second
	a, b, c := arrivals(d, 150, 7), arrivals(d, 150, 7), arrivals(d, 150, 8)
	if len(a) != 300 || len(c) != 300 {
		t.Fatalf("counts %d, %d; want 300 whatever the seed", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 arrival %d differs between two draws", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if a[i] < 0 || a[i] >= d {
			t.Fatalf("arrival %v outside the window", a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

// The open loop times each request from the instant it was due, not
// from when it was sent, and reports how late the generator ran.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const call = 3 * time.Millisecond
	var mu sync.Mutex
	var fromDue, lagAtSend float64
	send := func(i int, due time.Time) (time.Time, string) {
		lag := time.Since(due)
		time.Sleep(call)
		replied := time.Now()
		mu.Lock()
		fromDue += float64(replied.Sub(due)) / 1e6
		lagAtSend += float64(lag) / 1e6
		mu.Unlock()
		if i%10 == 9 {
			return replied, "shed"
		}
		return replied, ""
	}
	p := openLoop(300*time.Millisecond, 200, 1, nil, send, func() {})
	if p.sent != 60 || p.ok != 54 || p.fails["shed"] != 6 || p.failed() != 6 {
		t.Fatalf("sent %d ok %d fails %v; want 60, 54, 6 shed", p.sent, p.ok, p.fails)
	}
	if len(p.latMS) != p.ok || len(p.lagMS) != p.sent {
		t.Fatalf("%d latencies for %d ok, %d lags for %d sent", len(p.latMS), p.ok, len(p.lagMS), p.sent)
	}
	var lat, lag float64
	for _, l := range p.latMS {
		if l < float64(call)/1e6 {
			t.Fatalf("latency %v ms below the call's own %v", l, call)
		}
		lat += l
	}
	for _, l := range p.lagMS {
		if l < 0 {
			t.Fatalf("negative lag %v", l)
		}
		lag += l
	}
	// Failed requests have no latency sample; the rest must sum to the
	// due-to-reply time send saw, less the six failed ones' share.
	if lat > fromDue || lat < fromDue*0.8 {
		t.Errorf("latencies sum to %v ms; send measured %v ms from the due instants", lat, fromDue)
	}
	if lag > lagAtSend || lagAtSend-lag > 1*float64(p.sent) {
		t.Errorf("reported lag %v ms; send saw %v ms", lag, lagAtSend)
	}
}

// Arrivals beyond the outstanding cap are not sent and count as failed.
func TestOpenLoopDropsBeyondOutstandingCap(t *testing.T) {
	release := make(chan struct{})
	send := func(int, time.Time) (time.Time, string) {
		<-release
		return time.Now(), ""
	}
	var p *phase
	done := make(chan struct{})
	go func() {
		defer close(done)
		p = openLoop(50*time.Millisecond, 100000, 1, nil, send, func() {})
	}()
	time.Sleep(200 * time.Millisecond)
	close(release)
	<-done
	if p.sent != 5000 || p.ok != maxOutstanding || p.fails[failDrop] != 5000-maxOutstanding {
		t.Fatalf("sent %d ok %d fails %v; want 5000, %d, the rest dropped", p.sent, p.ok, p.fails, maxOutstanding)
	}
	if p.backlog != maxOutstanding || !backlogGrew(p) {
		t.Errorf("backlog %d, grew %v; want %d, true", p.backlog, backlogGrew(p), maxOutstanding)
	}
	if miss := sloMissShare(p, 1e9); miss != float64(5000-maxOutstanding)/5000 {
		t.Errorf("slo miss share %v: a failed request must count as a miss", miss)
	}
}

func TestMeterCutsAPhaseIntoWindows(t *testing.T) {
	d := 200 * time.Millisecond
	p := closedLoop(d, newMeter(d), func(int) (time.Duration, string) {
		time.Sleep(time.Millisecond)
		return time.Millisecond, ""
	})
	if n := len(p.windows); n < windowsPerPhase-2 || n > windowsPerPhase+1 {
		t.Fatalf("%d windows, want about %d", n, windowsPerPhase)
	}
	sent := 0
	for _, w := range p.windows {
		if w.sent == 0 || w.sent != w.ok || w.seconds <= 0 {
			t.Fatalf("bad window %+v", w)
		}
		sent += w.sent
	}
	if sent > p.sent || sent < p.sent*8/10 {
		t.Errorf("windows hold %d of %d ops", sent, p.sent)
	}
	if r := p.over(func(w window) float64 { return float64(w.ok) / w.seconds }); r < 100 || r > 1000 {
		t.Errorf("median window rate %v op/s for a 1 ms op", r)
	}
}

func TestSpanReconcile(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	for op := int64(0); op < 3; op++ {
		root := l.add("op", at(0), at(10), -1, op)
		l.add("quant", at(20), at(23), root, op) // replays run after the op
		l.add("kernel", at(23), at(27), root, op)
	}
	r := l.reconcile()
	if r.totalP50 != 10 || r.selfP50 != 3 {
		t.Fatalf("reconcile = %+v", r)
	}
	// Children that do not fit inside their parent cannot reconcile.
	over := newSpanLog()
	root := over.add("op", over.t0, over.t0.Add(10*time.Millisecond), -1, 0)
	over.add("kernel", over.t0, over.t0.Add(25*time.Millisecond), root, 0)
	if r := over.reconcile(); r.totalP50 != 25 || r.selfP50 != 0 {
		t.Fatalf("oversized child: %+v, want total 25 self 0", r)
	}
	var nilLog *spanLog
	if nilLog.add("x", at(0), at(1), -1, 0) != -1 {
		t.Error("a nil span log must record nothing")
	}
}

func TestBalancedPlan(t *testing.T) {
	plan := balancedPlan(rand.New(rand.NewSource(3)), 128, 4096)
	if len(plan) != 4096 {
		t.Fatalf("len %d", len(plan))
	}
	count := make(map[int]int)
	for _, x := range plan {
		count[x]++
	}
	for x := 0; x < 128; x++ {
		if count[x] != 32 {
			t.Fatalf("template %d occurs %d times, want 32", x, count[x])
		}
	}
}

// The same seed must give the same generated inputs, another seed
// different ones, for every workload's generator.
func TestSeedGivesIdenticalInputs(t *testing.T) {
	lib := gptpu.Open(gptpu.Config{Devices: 2})
	defer lib.Close()
	gens := map[string]func(seed int64) uint64{
		"gemm_lib": func(seed int64) uint64 {
			in := genGemm(seed, 1)
			return checksumAll(in.a[0], in.b, in.refs[0])
		},
		"apps_lib": func(seed int64) uint64 {
			h := uint64(0)
			for _, c := range genApps(seed) {
				h = h*31 + checksumAll(c.ref...)
			}
			return h
		},
		"serve_small": func(seed int64) uint64 {
			in, err := genServe(rand.New(rand.NewSource(seed)), lib, 4)
			if err != nil {
				t.Fatal(err)
			}
			return checksumAll(in.acts[3], in.weights[3], in.refs[3][3]) ^ in.lib[3][3]
		},
		"route_mixed": func(seed int64) uint64 {
			ts, err := genRoute(rand.New(rand.NewSource(seed)), lib, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := uint64(0)
			for _, tm := range ts {
				h = h*31 + checksumAll(tm.a, tm.ref) ^ tm.lib
			}
			return h
		},
	}
	for name, gen := range gens {
		a, b, c := gen(5), gen(5), gen(6)
		if a != b {
			t.Errorf("%s: seed 5 generated two different input sets", name)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 generated the same inputs", name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is generated from spec.go and must stay inside the
// driver's limits.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from spec.go; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed form", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		unique(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEndSpecs {
		unique(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayerSpecs {
		unique(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the allowed form", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// The smoke: every workload for one second. No op may fail, the two
// counts-and-virtual-clock metrics must repeat exactly across two runs,
// and a run must emit exactly the names of the spec.
func TestSmokeEveryWorkload(t *testing.T) {
	names := func(specs []metricSpec) map[string]bool {
		m := make(map[string]bool)
		for _, s := range specs {
			m[s.Name] = true
		}
		return m
	}
	for _, ws := range workloadSpecs {
		ws := ws
		t.Run(ws.Name, func(t *testing.T) {
			a, err := runEndToEnd(ws.Name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runEndToEnd(ws.Name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if raceEnabled {
				// Tenfold slower, the open-loop workloads fall behind their
				// rates: requests may time out, but never be answered wrongly.
				lay, err := runLayers(ws.Name, 1, 2, t.TempDir()+"/spans.json")
				if err != nil {
					t.Fatal(err)
				}
				if !a.Correct || !b.Correct || !lay.Correct {
					t.Fatalf("wrong answers: %v %v %v", a.Fails, b.Fails, lay.Fails)
				}
				return
			}
			for _, r := range []*result{a, b} {
				if r.Failed != 0 || !r.Correct || r.values["ok_share"] != 1 {
					t.Fatalf("failed ops: %d of %d, %v", r.Failed, r.Attempted, r.Fails)
				}
			}
			for _, m := range []string{"virtual_ms_per_op", "result_err_pct"} {
				if a.values[m] != b.values[m] || a.values[m] <= 0 {
					t.Errorf("%s: %v then %v; must be positive and repeat exactly", m, a.values[m], b.values[m])
				}
			}
			want := names(endToEndSpecs)
			for name, v := range a.values {
				if !want[name] {
					t.Errorf("emitted %q, which BENCHMARK.json does not list", name)
				}
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v: an end-to-end metric is never 0", name, v)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("end-to-end metric %q not emitted", name)
			}

			spans := t.TempDir() + "/spans.json"
			lay, err := runLayers(ws.Name, 1, 2, spans)
			if err != nil {
				t.Fatal(err)
			}
			if lay.Failed != 0 || !lay.Correct {
				t.Fatalf("layer run failed ops: %d of %d, %v", lay.Failed, lay.Attempted, lay.Fails)
			}
			listed := names(perLayerSpecs)
			for name, v := range lay.values {
				if !listed[name] {
					t.Errorf("emitted %q, which BENCHMARK.json does not list", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if lay.values["obs.spans"] == 0 {
				t.Error("the traced pass recorded no span")
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			// gemm_lib's children are standalone replays run after the op,
			// so in a run this short they may not fit inside it; the other
			// workloads' children are nested intervals and always do.
			limit := 5.0
			if ws.Name == "gemm_lib" {
				limit = 30
			}
			if off := lay.values["obs.span_reconcile_pct"]; off > limit {
				t.Errorf("children + self are %v %% off the traced p50, limit %v", off, limit)
			}
			if hop := lay.values["cluster.hop_us"]; (hop != 0) != (ws.Name == "route_mixed") {
				t.Errorf("cluster.hop_us = %v on %s", hop, ws.Name)
			}
		})
	}
}
