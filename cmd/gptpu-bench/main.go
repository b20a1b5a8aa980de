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
// Every result is on the virtual clock; host wall-clock performance is
// the repo benchmark's job (bash benchmark/run.sh).
//
// With -metrics the sweep's telemetry accumulates into one shared
// registry (every context the experiments open records into it) and a
// snapshot is written after the last experiment in the Prometheus text
// format. With -trace every context records its
// schedule and the merged Chrome trace is written at the end, one
// process group per context. The -fault-* flags give every context the
// same fault plan. All of them reach the experiments' contexts through
// bench.Opts.Open.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	gptpu "repro"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/trace"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale configurations (slower)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	metricsOut := flag.String("metrics", "", "write the sweep-wide telemetry snapshot to this file (Prometheus text)")
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
	}
	if *pprofAddr != "" {
		ps, err := telemetry.Listen(*pprofAddr, reg, true, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench: pprof:", err)
			os.Exit(1)
		}
		defer ps.Close()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", ps.Addr())
	}

	// Every context the experiments open comes through this hook: it
	// fills in the shared registry and the fault plan where the
	// experiment left them nil, and with -trace records the context's
	// timeline for the merged export.
	tracing := *traceOut != ""
	var timelines []*timing.Timeline
	open := func(cfg gptpu.Config) *gptpu.Context {
		if cfg.Metrics == nil {
			cfg.Metrics = reg
		}
		if cfg.Fault == nil {
			cfg.Fault = fc
		}
		cfg.Trace = cfg.Trace || tracing
		ctx := gptpu.Open(cfg)
		if tracing {
			timelines = append(timelines, ctx.TL)
		}
		return ctx
	}

	opts := bench.Opts{Full: *full, Open: open}
	mode := "quick"
	if *full {
		mode = "full (paper-scale)"
	}
	fmt.Printf("GPTPU reproduction harness — %d experiment(s), %s mode\n\n", len(selected), mode)
	for _, e := range selected {
		start := time.Now()
		e.Run(opts).Fprint(os.Stdout)
		fmt.Printf("  [%s regenerated in %v wall time]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if reg != nil && *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d families -> %s\n", len(reg.Catalog()), *metricsOut)
	}
	if tracing {
		n, err := trace.WriteFile(*traceOut, timelines, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events -> %s\n", n, *traceOut)
	}
}
