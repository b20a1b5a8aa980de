// Command benchmark is the repo benchmark: four seeded workloads
// against the GPTPU library, daemon and router, eight end-to-end
// metrics measured with tracing off, and a layer run that replays each
// package standalone and records benchmark-side spans. README.md in
// this directory is the manual; spec.go is the contract.
//
//	bash benchmark/run.sh --workload gemm_lib --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -workload all -seed 1            # every metric, both runs
//	bash benchmark/run.sh -workload all -seed 1 -repeat 5  # medians, quartiles, spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/edgetpu"
)

// An end-to-end run sets the workload up at least minSetups times, and
// up to maxSetups while that has taken less than setupBudget; setup_s
// is the median, so neither the cold first set-up nor, on the workloads
// that set up in tens of milliseconds, one scheduling hiccup decides it.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// Shares of --seconds a layer run gives its phases. The rest goes to
// the standalone replays, which take a fixed ~2 s.
const (
	untracedShare = 0.40
	tracedShare   = 0.30
	ladderShare   = 0.24
)

// sloMS is each served workload's latency limit.
var sloMS = map[string]float64{"serve_small": serveSLOms, "route_mixed": routeSLOms}

// operandSide is the operand shape the quant and model layers are
// replayed at for each workload.
var operandSide = map[string]int{"gemm_lib": gemmN, "apps_lib": 256, "serve_small": serveN, "route_mixed": routeBigN}

// result is one run of one workload.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Fails     map[string]int `json:"-"`
	values    values
}

func (r *result) count(p *phase) {
	r.Attempted += p.sent
	for class, n := range p.fails {
		r.Failed += n
		r.Fails[class] += n
		if strings.HasPrefix(class, "check_") {
			r.Correct = false
		}
	}
}

func newResult() *result {
	return &result{Correct: true, Fails: make(map[string]int), values: make(values)}
}

// runEndToEnd measures the eight end-to-end metrics of one workload
// with tracing off.
func runEndToEnd(name string, seed int64, seconds float64) (*result, error) {
	var w workload
	var setupS []float64
	for k, began := 0, time.Now(); k < minSetups || (k < maxSetups && time.Since(began) < setupBudget); k++ {
		if w != nil {
			w.close()
		}
		w = workloads[name]()
		runtime.GC() // every set-up starts from a collected heap, so they time alike
		t0 := time.Now()
		if err := w.setup(seed, false); err != nil {
			w.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()

	chk := w.check()
	d := secondsDur(seconds)
	ph := w.run(d, newMeter(d), nil)

	r := newResult()
	r.count(&chk.phase)
	r.count(ph)
	if ph.ok == 0 || len(ph.windows) == 0 {
		return nil, fmt.Errorf("%s: no op of the timed phase succeeded: %v", name, ph.fails)
	}
	v := r.values
	v["setup_s"] = median(setupS)
	v["ops_per_s"] = ph.over(func(w window) float64 { return float64(w.ok) / w.seconds })
	v["latency_p50_ms"] = median(ph.latMS)
	v["cpu_ms_per_op"] = ph.over(func(w window) float64 { return w.cpuMS / float64(w.sent) })
	v["alloc_kb_per_op"] = ph.over(func(w window) float64 { return w.allocKB / float64(w.sent) })
	v["ok_share"] = 1 - float64(r.Failed)/float64(r.Attempted)
	v["virtual_ms_per_op"] = chk.virtualMS
	v["result_err_pct"] = chk.errPct
	return r, nil
}

// runLayers measures the per-layer metrics of one workload: an
// untraced phase for the client tails and the program's counters, the
// standalone layer replays, then the same inputs again with the
// program's tracing and the benchmark's spans on.
func runLayers(name string, seed int64, seconds float64, traceOut string) (*result, error) {
	r := newResult()
	v := r.values

	w := workloads[name]()
	if err := w.setup(seed, false); err != nil {
		w.close()
		return nil, err
	}
	chk := w.check()
	r.count(&chk.phase)
	c0 := w.counters()
	steal0, total0 := stealJiffies()
	un := w.run(secondsDur(seconds*untracedShare), nil, nil)
	r.count(un)
	counterMetrics(v, w.counters().minus(c0), float64(un.sent))
	clientMetrics(v, un, sloMS[name])
	// How disturbed the host was while the phase ran, and how fast it is:
	// what to look at first when a run's host numbers stand out.
	if steal1, total1 := stealJiffies(); total1 > total0 {
		v["client.host_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	v["client.host_spin_us"] = timeUS(spin)
	w.layers(v, secondsDur(seconds*ladderShare))
	telemetryLayers(v, w.registry())
	w.close()

	shapeLayers(v, operandSide[name], operandSide[name])
	kernelLayers(v)
	coreLayers(v)

	tw := workloads[name]()
	if err := tw.setup(seed, true); err != nil {
		tw.close()
		return nil, err
	}
	defer tw.close()
	tchk := tw.check()
	r.count(&tchk.phase)
	sl := newSpanLog()
	tr := tw.run(secondsDur(seconds*tracedShare), nil, sl)
	r.count(tr)
	if len(un.latMS) == 0 || len(tr.latMS) == 0 {
		return nil, fmt.Errorf("%s: a phase of the layer run completed no op: %v %v", name, un.fails, tr.fails)
	}
	stages := tw.stages()
	for _, st := range stageNames {
		v["server.stage."+st+"_p50_us"] = stages[st]
	}
	rec := sl.reconcile()
	tracedP50 := median(tr.latMS)
	v["obs.trace_overhead_pct"] = 100 * (tracedP50/median(un.latMS) - 1)
	v["obs.span_reconcile_pct"] = 100 * math.Abs(rec.totalP50-tracedP50) / tracedP50
	v["obs.spans"] = float64(len(sl.spans))
	switch {
	case name == "gemm_lib":
		// Op span minus its standalone quant and edgetpu children.
		v["core.self_ms_per_op"] = rec.selfP50
	case stages["runtime"] > 0:
		// Served: the program's own runtime stage (enqueue to task
		// completion) minus its functional exec stage.
		v["core.self_ms_per_op"] = (stages["runtime"] - stages["exec"]) / 1e3
	}
	if err := sl.write(traceOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return r, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
}

// render pairs every metric of the set with its value; a per-layer
// metric the workload does not reach is 0.
func render(specs []metricSpec, v values, clocks bool) map[string]metricOut {
	out := make(map[string]metricOut, len(specs))
	for _, s := range specs {
		m := metricOut{Value: v[s.Name], Unit: s.Unit}
		if clocks {
			m.Clock = clockOf(s)
		}
		out[s.Name] = m
	}
	return out
}

// clockOf names the clock a metric is read on: virtual (cost model;
// repeats exactly), cpu or host (noisy); empty for counts and shares.
func clockOf(s metricSpec) string {
	switch {
	case s.Unit == "virtual_ms" || strings.Contains(s.Name, "virtual"):
		return "virtual"
	case s.Name == "cpu_ms_per_op":
		return "cpu"
	case s.Unit == "s" || s.Unit == "ms" || s.Unit == "us" || strings.HasSuffix(s.Unit, "/s") || s.Name == "obs.trace_overhead_pct":
		return "host"
	}
	return ""
}

// env describes the host and build a report was taken on.
func env() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"commit":           commit,
		"dispatch_workers": runtime.GOMAXPROCS(0), // core's default: one per host core
		"kernel_threads":   edgetpu.KernelThreads(),
	}
}

func tracePath(flagValue, name string, seed int64) string {
	if flagValue != "" {
		return flagValue
	}
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
}

// driverRun is the contract of BENCHMARK.json: one workload, one kind
// of run, one result object as the last line of standard output.
func driverRun(name string, seed int64, seconds float64, traced bool, traceOut string) (*result, error) {
	var r *result
	var err error
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
		r, err = runLayers(name, seed, seconds, tracePath(traceOut, name, seed))
	} else {
		r, err = runEndToEnd(name, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(struct {
		*result
		Metrics map[string]metricOut `json:"metrics"`
	}{r, render(specs, r.values, false)})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return r, nil
}

// report runs both kinds of run on every named workload, repeat times
// with seeds seed, seed+1, ..., and prints every metric by name with
// its unit and clock, then (repeat > 1) each end-to-end metric's
// median, quartiles and relative spread per workload.
func report(names []string, seed int64, seconds float64, repeat int, traceOut string) (bool, error) {
	type workloadOut struct {
		*result
		FailClasses map[string]int       `json:"fail_classes"`
		EndToEnd    map[string]metricOut `json:"end_to_end"`
		PerLayer    map[string]metricOut `json:"per_layer"`
	}
	type spreadOut struct {
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Bound  float64   `json:"bound"`
		Values []float64 `json:"values"`
	}
	correct := true
	runs := make([]map[string]workloadOut, 0, repeat)
	series := make(map[string]map[string][]float64) // workload -> metric -> value per repetition
	for k := 0; k < repeat; k++ {
		out := make(map[string]workloadOut)
		for _, name := range names {
			s := seed + int64(k)
			e2e, err := runEndToEnd(name, s, seconds)
			if err != nil {
				return false, err
			}
			lay, err := runLayers(name, s, seconds, tracePath(traceOut, name, s))
			if err != nil {
				return false, err
			}
			total := newResult()
			for _, r := range []*result{e2e, lay} {
				total.Attempted += r.Attempted
				total.Failed += r.Failed
				total.Correct = total.Correct && r.Correct
				for c, n := range r.Fails {
					total.Fails[c] += n
				}
			}
			correct = correct && total.Correct
			out[name] = workloadOut{total, total.Fails,
				render(endToEndSpecs, e2e.values, true), render(perLayerSpecs, lay.values, true)}
			if series[name] == nil {
				series[name] = make(map[string][]float64)
			}
			for _, sp := range endToEndSpecs {
				series[name][sp.Name] = append(series[name][sp.Name], e2e.values[sp.Name])
			}
		}
		runs = append(runs, out)
	}
	doc := map[string]any{"env": env(), "seed": seed, "seconds": seconds, "runs": runs}
	if repeat > 1 {
		spread := make(map[string]map[string]spreadOut)
		for name, ms := range series {
			spread[name] = make(map[string]spreadOut)
			for _, sp := range endToEndSpecs {
				q1, q2, q3 := quartiles(ms[sp.Name])
				spread[name][sp.Name] = spreadOut{q2, q1, q3, relSpread(ms[sp.Name]), *sp.Bound, ms[sp.Name]}
			}
		}
		doc["repeat"] = spread
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return correct, enc.Encode(doc)
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "seconds one run measures")
		trace    = flag.String("trace", "", "0: end-to-end run, 1: layer run, one result line (the driver's form); unset: both, as a report")
		traceOut = flag.String("trace-out", "", "span file of the layer run (default .bench_build/traces/<workload>-seed<n>.json)")
		repeat   = flag.Int("repeat", 1, "report mode: run the whole set this many times, seeds seed, seed+1, ...")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		buf, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(buf)
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if workloads[*name] == nil {
		known := make([]string, 0, len(workloads))
		for n := range workloads {
			known = append(known, n)
		}
		sort.Strings(known)
		fatal(fmt.Errorf("unknown workload %q (have %s, all)", *name, strings.Join(known, ", ")))
	}
	if *seconds <= 0 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be positive"))
	}

	var correct bool
	var err error
	switch {
	case *trace == "" || len(names) > 1:
		correct, err = report(names, *seed, *seconds, *repeat, *traceOut)
	case *trace == "0" || *trace == "1":
		var r *result
		if r, err = driverRun(names[0], *seed, *seconds, *trace == "1", *traceOut); err == nil {
			correct = r.Correct
		}
	default:
		err = fmt.Errorf("-trace must be 0 or 1, got %q", *trace)
	}
	if err != nil {
		fatal(err)
	}
	if !correct {
		// Printed first, failed second: the counts are in the output.
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
