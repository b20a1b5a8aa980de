// Command gptpu-run executes one of the seven evaluation workloads on
// the simulated platform and reports virtual time, energy, and
// per-resource occupancy. With -trace it additionally exports the full
// resource schedule as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) — the profile view behind the paper's
// bottleneck analyses. With -metrics it dumps the runtime telemetry
// snapshot in the Prometheus text format: scheduler counters,
// per-operator latency histograms, and per-device transfer/residency
// counters.
//
// Usage:
//
//	gptpu-run -app gemm -n 2048 -devices 4
//	gptpu-run -app pagerank -n 4096 -iters 20 -trace pr.json
//	gptpu-run -app gemm -n 1024 -metrics out.prom -trace out.json
//	gptpu-run -app hotspot3d -n 1024 -functional=false
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/apps/backprop"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/gaussian"
	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot3d"
	"repro/internal/apps/lud"
	"repro/internal/apps/pagerank"
	"repro/internal/blas"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/timing"
	"repro/internal/trace"
)

func main() {
	app := flag.String("app", "gemm", "workload: gemm|pagerank|hotspot3d|lud|gaussian|backprop|blackscholes")
	n := flag.Int("n", 1024, "linear problem size (options count for blackscholes)")
	iters := flag.Int("iters", 10, "iterations (pagerank/hotspot3d)")
	devices := flag.Int("devices", 1, "number of Edge TPUs")
	workers := flag.Int("workers", 0, "IQ dispatch-engine worker goroutines (0 = one per host core; only affects wall-clock speed, never simulated results)")
	functional := flag.Bool("functional", true, "compute real results (disable for paper-scale timing sweeps)")
	seed := flag.Int64("seed", 42, "workload seed")
	traceOut := flag.String("trace", "", "write Chrome trace JSON to this file")
	metricsOut := flag.String("metrics", "", "write a telemetry snapshot to this file (Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve live metrics and net/http/pprof on this address while the run executes (e.g. :6060)")
	retryBudget := flag.Int("retry-budget", 0, "dispatch retries per instruction under faults (0 = default 8)")
	var ff fault.Flags
	ff.Register(flag.CommandLine)
	flag.Parse()

	fc, err := ff.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-run:", err)
		os.Exit(2)
	}

	ctx := gptpu.Open(gptpu.Config{
		Devices:         *devices,
		TimingOnly:      !*functional,
		DispatchWorkers: *workers,
		Trace:           *traceOut != "",
		Fault:           fc,
		RetryBudget:     *retryBudget,
	})

	if *pprofAddr != "" {
		ps, err := telemetry.Listen(*pprofAddr, ctx.Metrics(), true, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-run: pprof:", err)
			os.Exit(1)
		}
		defer ps.Close()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", ps.Addr())
	}

	tpuM, cpuM, err := run(*app, ctx, *n, *iters, *seed, *functional)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-run:", err)
		os.Exit(1)
	}

	fmt.Printf("%s (n=%d, devices=%d, functional=%v)\n", *app, *n, *devices, *functional)
	fmt.Printf("  CPU baseline:  %v   %.2f J\n", cpuM.Elapsed, cpuM.Energy.TotalJoules())
	fmt.Printf("  GPTPU:         %v   %.2f J\n", tpuM.Elapsed, tpuM.Energy.TotalJoules())
	fmt.Printf("  speedup %.2fx   energy %.1f%%   EDP %.1f%%\n",
		tpuM.Speedup(cpuM), 100*tpuM.EnergyRatio(cpuM), 100*tpuM.EDPRatio(cpuM))

	st := ctx.Stats()
	fmt.Printf("  residency: %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
		st.ResidencyHits, st.ResidencyMisses, 100*st.HitRate, st.Evictions)
	fmt.Printf("  scheduler: %d affinity hits / %d FCFS fallbacks / %d rebinds, %d device-lost retries\n",
		st.AffinityHits, st.FCFSFallbacks, st.AffinityRebinds, st.DeviceLostRetries)
	if st.TransientRetries > 0 || st.RetryBudgetExhausted > 0 {
		fmt.Printf("  faults: %d transient retries, %d retry budgets exhausted\n",
			st.TransientRetries, st.RetryBudgetExhausted)
	}
	fmt.Printf("  tensorizer: %d quant-cache hits / %d misses\n",
		st.QuantCacheHits, st.QuantCacheMisses)
	fmt.Println("  resource occupancy:")
	res := ctx.TL.Resources()
	sort.Slice(res, func(i, j int) bool { return res[i].Name < res[j].Name })
	mk := ctx.Elapsed().Seconds()
	for _, r := range res {
		util := 0.0
		if mk > 0 {
			util = r.BusyTime().Seconds() / mk
		}
		fmt.Printf("    %-22s busy %-14v %6.1f%%  (%d ops)\n",
			r.Name, r.BusyTime(), 100*util, r.Ops())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-run:", err)
			os.Exit(1)
		}
		defer f.Close()
		nEvents, err := trace.Write(f, []*timing.Timeline{ctx.TL}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-run:", err)
			os.Exit(1)
		}
		fmt.Printf("  trace: %d events -> %s\n", nEvents, *traceOut)
	}

	if *metricsOut != "" {
		if err := writeMetrics(ctx.Metrics(), *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-run:", err)
			os.Exit(1)
		}
		fmt.Printf("  metrics: %d families -> %s\n", len(ctx.Metrics().Catalog()), *metricsOut)
	}
}

// writeMetrics dumps a registry snapshot to path in the Prometheus
// text exposition format.
func writeMetrics(reg *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

// run executes the selected workload on both the GPTPU context and a
// fresh single-core CPU baseline.
func run(app string, ctx *gptpu.Context, n, iters int, seed int64, functional bool) (tpu, cpu apps.Metrics, err error) {
	cpuM := blas.NewCPU(nil, 1)
	switch app {
	case "gemm":
		cfg := gemm.Config{N: n, Seed: seed}
		var a, b *tensor.Matrix
		if functional {
			a, b = cfg.Generate()
		} else {
			a, b = tensor.ShapeOnly(n, n), tensor.ShapeOnly(n, n)
		}
		_, cpu = gemm.RunCPU(cpuM, 1, cfg, nil, nil)
		_, tpu, err = gemm.RunTPU(ctx, gemm.Conv2D, a, b)
	case "pagerank":
		cfg := pagerank.Config{N: n, Iters: iters, Seed: seed}
		var g *pagerank.Graph
		if functional {
			g = cfg.Generate()
		} else {
			g = &pagerank.Graph{Adj: tensor.ShapeOnly(n, n), OutDeg: make([]float32, n)}
		}
		_, cpu = pagerank.RunCPU(cpuM, 1, cfg, nil)
		_, tpu, err = pagerank.RunTPU(ctx, cfg, g)
	case "hotspot3d":
		cfg := hotspot3d.Config{N: n, Layers: 8, Iters: iters, Seed: seed}
		var temp, power []*tensor.Matrix
		if functional {
			temp, power = cfg.Generate()
		}
		_, cpu = hotspot3d.RunCPU(cpuM, 1, cfg, nil, nil)
		_, tpu, err = hotspot3d.RunTPU(ctx, cfg, temp, power)
	case "lud":
		cfg := lud.Config{N: n, Seed: seed}
		var a *tensor.Matrix
		if functional {
			a = cfg.Generate()
		}
		_, cpu = lud.RunCPU(cpuM, 1, cfg, nil)
		_, tpu, err = lud.RunTPU(ctx, cfg, a)
	case "gaussian":
		cfg := gaussian.Config{N: n, Seed: seed}
		var a *tensor.Matrix
		if functional {
			a = cfg.Generate()
		}
		_, cpu = gaussian.RunCPU(cpuM, 1, cfg, nil)
		_, tpu, err = gaussian.RunTPU(ctx, cfg, a)
	case "backprop":
		cfg := backprop.Config{Batch: n, In: n, Hidden: n, Seed: seed}
		var w *backprop.Workload
		if functional {
			w = cfg.Generate()
		}
		_, cpu = backprop.RunCPU(cpuM, 1, cfg, nil)
		_, tpu, err = backprop.RunTPU(ctx, cfg, w)
	case "blackscholes":
		cfg := blackscholes.Config{N: n, Seed: seed}
		var opts []blackscholes.Option
		if functional {
			opts = cfg.Generate()
		}
		_, cpu = blackscholes.RunCPU(cpuM, 1, cfg, nil)
		_, tpu, err = blackscholes.RunTPU(ctx, cfg, opts)
	default:
		err = fmt.Errorf("unknown app %q", app)
	}
	return tpu, cpu, err
}
