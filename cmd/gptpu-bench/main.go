// Command gptpu-bench regenerates the paper's evaluation tables and
// figures on the simulated GPTPU platform.
//
// Usage:
//
//	gptpu-bench                  # run every experiment (quick scale)
//	gptpu-bench -full            # paper-scale configurations
//	gptpu-bench -exp fig7,table5 # selected experiments
//	gptpu-bench -list            # list experiment ids
//
// With -metrics the sweep's telemetry accumulates into one shared
// registry (every context the experiments open records into it) and a
// snapshot is written after the last experiment: Prometheus text, or
// expvar JSON for .json paths. With -trace every context records its
// schedule and the merged Chrome trace is written at the end, one
// process group per context.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	gptpu "repro"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale configurations (slower)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	workers := flag.Int("workers", 0, "IQ dispatch-engine worker goroutines per context (0 = one per host core)")
	format := flag.String("format", "text", "output format: text|csv|json")
	metricsOut := flag.String("metrics", "", "write the sweep-wide telemetry snapshot to this file (Prometheus text; expvar JSON if the name ends in .json)")
	traceOut := flag.String("trace", "", "write the merged Chrome trace of every context to this file")
	pprofAddr := flag.String("pprof", "", "serve live metrics and net/http/pprof on this address while the sweep runs (e.g. :6060)")
	var ff fault.Flags
	ff.Register(flag.CommandLine)
	flag.Parse()

	fc, err := ff.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
		os.Exit(2)
	}
	if fc != nil {
		// Every context the sweep opens inherits the fault plan, same
		// mechanism as the shared metrics registry below.
		gptpu.SetDefaultFault(fc)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Name)
		}
		return
	}

	var selected []bench.Experiment
	if *exp == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "gptpu-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var reg *telemetry.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		gptpu.SetDefaultMetrics(reg)
	}
	if *traceOut != "" {
		gptpu.SetDefaultTrace(true)
	}
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", reg.Handler())
		telemetry.AttachPprof(mux)
		ps, err := telemetry.ServeMux(*pprofAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench: pprof:", err)
			os.Exit(1)
		}
		defer ps.Close()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", ps.Addr())
	}

	opts := bench.Opts{Full: *full, Workers: *workers}
	mode := "quick"
	if *full {
		mode = "full (paper-scale)"
	}
	// Machine-readable formats keep stdout pure (they are meant to be
	// redirected, e.g. make bench-json); the banner goes to stderr.
	banner := os.Stdout
	if *format == "csv" || *format == "json" {
		banner = os.Stderr
	}
	fmt.Fprintf(banner, "GPTPU reproduction harness — %d experiment(s), %s mode\n\n", len(selected), mode)
	for _, e := range selected {
		start := time.Now()
		rep := e.Run(opts)
		switch *format {
		case "csv":
			if err := rep.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
				os.Exit(1)
			}
		case "json":
			if err := rep.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
				os.Exit(1)
			}
		default:
			rep.Fprint(os.Stdout)
			fmt.Printf("  [%s regenerated in %v wall time]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if reg != nil && *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
			os.Exit(1)
		}
		if strings.HasSuffix(*metricsOut, ".json") {
			err = reg.WriteJSON(f)
		} else {
			err = reg.WritePrometheus(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d families -> %s\n", len(reg.Catalog()), *metricsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
			os.Exit(1)
		}
		n, err := trace.ExportAll(gptpu.TracedTimelines(), f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events -> %s\n", n, *traceOut)
	}
}
