package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's contract, from which ../BENCHMARK.json is generated
// (go run . -spec) and against which every emitted name is checked:
// one table, so the file and the program cannot drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one driver run measures. The driver makes
// 4 + 22 x 4 runs inside 3420 s with two builds, so a run may take
// about 35 s in all; 20 s of measurement leaves room for three
// set-ups, the check set and the drain.
const runSeconds = 20

var workloadSpecs = []workloadSpec{
	{"gemm_lib", "closed loop, one caller, Op.Gemm 512x512 on 2 devices: the paper's headline kernel; edgetpu.Conv2DGemm and the dispatch engine dominate, the wire layers do nothing"},
	{"apps_lib", "closed loop, one caller, a round of the six non-GEMM Table 3 applications: FullyConnected, 3x3 stencils, pairwise and reduce kernels, thousands of small instructions, Graph beside Stream"},
	{"serve_small", "open loop, Poisson 1500 req/s of batchable 32x32 GEMMs to one daemon: per-request overhead of server and core (decode, admission, batch wait, submit, encode) dominates, kernels under 5 %"},
	{"route_mixed", "open loop, Poisson 150 req/s of GEMM 128, Add, Conv2D, Mean 256x256 through the router to two daemons: 64-768 KiB frames, every per-op arm, nothing batchable, so cost per byte dominates"},
}

func bound(b float64) *float64 { return &b }

// endToEndSpecs are what a caller of the library or a client of the
// daemons pays. Bounds start from ISSUE 11's table. The three host-time
// bounds are the largest the driver allows: ten seeds in a quiet
// quarter-hour of the 2-core sizing host spread 2-5.5 %, but the host's
// memory system is shared, and in a drifting quarter-hour the same ten
// runs spread 13-46 % (README.md, "Bounds").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "op/s", "higher", bound(0.25)},
	{"latency_p50_ms", "ms", "lower", bound(0.25)},
	{"cpu_ms_per_op", "ms", "lower", bound(0.25)},
	{"alloc_kb_per_op", "KiB", "lower", bound(0.03)},           // widest spread 0.6 % (gemm_lib)
	{"ok_share", "fraction", "higher", bound(0.002)},           // 1 - fail share; exactly 1 on every run
	{"virtual_ms_per_op", "virtual_ms", "lower", bound(0.001)}, // repeats exactly
	{"result_err_pct", "%", "lower", bound(0.001)},             // fixed check set: repeats exactly
}

// stageNames are the server-side stages of obs request traces that
// are reported as server.stage.<stage>_p50_us.
var stageNames = []string{"decode", "admission", "batch_wait", "queue_wait", "charge", "exec", "runtime", "reply_encode"}

// kernelNames are the edgetpu.kernel_us.<k> replays.
var kernelNames = []string{"conv2d_gemm_512", "conv2d_gemm_128", "conv2d_3x3", "fully_connected",
	"add", "sub", "mul", "tanh", "relu", "mean", "max", "crop", "ext"}

// perLayerSpecs lists every layer metric; a layer run prints all of
// them for every workload, 0 where the workload does not reach the
// layer.
var perLayerSpecs = buildPerLayer()

func buildPerLayer() []metricSpec {
	lo := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	s := []metricSpec{
		hi("client.sent", "count"), hi("client.ok", "count"), lo("client.failed", "count"),
		lo("client.fail_share", "fraction"), hi("client.latency_samples", "count"),
		lo("client.latency_p90_ms", "ms"), lo("client.latency_p99_ms", "ms"), lo("client.latency_p999_ms", "ms"),
		lo("client.slo_miss_share", "fraction"),
		lo("client.sched_lag_p99_ms", "ms"), lo("client.sched_lag_max_ms", "ms"),
		lo("client.host_steal_share", "fraction"), lo("client.host_spin_us", "us"),
	}
	for _, r := range ladderRates {
		s = append(s, lo(fmt.Sprintf("client.ladder_%d.p50_ms", r), "ms"),
			lo(fmt.Sprintf("client.ladder_%d.slo_miss_share", r), "fraction"))
	}
	s = append(s, hi("client.max_rate_in_slo_rps", "1/s"),

		lo("server.decode_us", "us"), lo("server.encode_us", "us"), lo("server.wire_bytes_per_op", "B"),
		lo("server.ping_rtt_us", "us"), lo("server.self_us", "us"),
		lo("server.batches", "count"), hi("server.avg_batch_size", "count"), hi("server.batched_share", "fraction"),
		hi("server.weight_cache_hits", "count"), lo("server.shed", "count"))
	for _, st := range stageNames {
		s = append(s, lo("server.stage."+st+"_p50_us", "us"))
	}
	s = append(s,
		lo("cluster.hop_us", "us"), hi("cluster.forwards", "count"), lo("cluster.failovers", "count"),
		hi("cluster.affinity_hit_share", "fraction"), lo("cluster.affinity_keys", "count"),

		lo("core.op_overhead_us", "us"), lo("core.enqueue_wait_us", "us"),
		lo("core.graph_chain_ms", "ms"), lo("core.perop_chain_ms", "ms"),
		lo("core.graph_d2h_bytes", "B"), lo("core.perop_d2h_bytes", "B"),
		lo("core.instructions_per_op", "count"), hi("core.affinity_hit_share", "fraction"),
		hi("core.quant_cache_hit_share", "fraction"), lo("core.retries", "count"), lo("core.self_ms_per_op", "ms"),

		lo("quant.quantize_us", "us"), lo("quant.dequantize_i32_us", "us"), lo("quant.calibrate_us", "us"),
		hi("quant.mb_per_s", "MB/s"),
		lo("model.encode_us", "us"), lo("model.decode_us", "us"), lo("model.bytes_per_op", "B"))
	for _, k := range kernelNames {
		s = append(s, lo("edgetpu.kernel_us."+k, "us"))
	}
	s = append(s,
		hi("edgetpu.gmacs_per_s", "GMAC/s"), lo("edgetpu.pool_jobs", "count"), lo("edgetpu.pool_serial_share", "fraction"),
		lo("edgetpu.execs_per_op", "count"), lo("edgetpu.h2d_bytes_per_op", "B"), lo("edgetpu.d2h_bytes_per_op", "B"),
		hi("edgetpu.residency_hit_share", "fraction"), lo("edgetpu.evictions", "count"),
		hi("edgetpu.virtual_busy_share", "fraction"),
		lo("pcie.virtual_link_busy_share", "fraction"))
	for _, a := range appNames {
		s = append(s, lo("apps."+a+"_ms", "ms"), lo("apps."+a+"_virtual_ms", "virtual_ms"),
			hi("apps."+a+"_speedup_x", "x"), lo("apps."+a+"_rmse_pct", "%"), lo("apps."+a+"_mape_pct", "%"))
	}
	return append(s,
		lo("obs.trace_overhead_pct", "%"), lo("obs.span_reconcile_pct", "%"), hi("obs.spans", "count"),
		lo("telemetry.snapshot_us", "us"), lo("telemetry.families", "count"))
}

// benchmarkJSON renders ../BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
