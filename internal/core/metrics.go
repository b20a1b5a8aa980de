package core

import "repro/internal/telemetry"

// runtimeMetrics holds the context's telemetry handles. Everything the
// runtime records lives in one registry (Context.Metrics) so the
// Prometheus/JSON exports, Context.Stats and gptpu-info's catalog all
// read the same source.
type runtimeMetrics struct {
	reg *telemetry.Registry

	// OPQ (front-end task queue).
	opqDepth *telemetry.Gauge

	// IQ (back-end instruction queue).
	instrs *telemetry.CounterVec   // by instruction kind
	opVLat *telemetry.HistogramVec // by operator, virtual seconds

	// Tensorizer (host-side data transformation).
	quantCacheHits   *telemetry.Counter
	quantCacheMisses *telemetry.Counter

	// Scheduler (section 6.1 policy).
	affinityHits    *telemetry.Counter
	fcfsFallbacks   *telemetry.Counter
	affinityRebinds *telemetry.Counter
	lostRetries     *telemetry.Counter

	// Failure-path retries in the charge phase.
	transientRetries *telemetry.Counter
	retryExhausted   *telemetry.Counter

	// Dataflow graphs.
	graphSubmits   *telemetry.Counter
	graphNodes     *telemetry.Counter
	graphChipEdges *telemetry.Counter
}

func newRuntimeMetrics(reg *telemetry.Registry) *runtimeMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &runtimeMetrics{
		reg: reg,
		opqDepth: reg.Gauge("gptpu_opq_depth",
			"OPQ tasks currently running (enqueued, not yet finished).").With(),
		instrs: reg.Counter("gptpu_instructions_total",
			"Edge TPU instructions dispatched, by instruction kind.", "op"),
		// 1 µs to 10 s: the paper's whole-operator makespans land inside.
		opVLat: reg.Histogram("gptpu_operator_vlatency_vseconds",
			"Virtual seconds one operator invocation occupies its stream, by operator.",
			telemetry.ExpBuckets(1e-6, 10, 8), "op"),
		quantCacheHits: reg.Counter("gptpu_quant_cache_hits_total",
			"Operator invocations that reused a buffer's cached quantization/model.").With(),
		quantCacheMisses: reg.Counter("gptpu_quant_cache_misses_total",
			"Quantization/model encodes performed by the Tensorizer.").With(),
		affinityHits: reg.Counter("gptpu_sched_affinity_hits_total",
			"Instructions placed by the section 6.1 locality rule.").With(),
		fcfsFallbacks: reg.Counter("gptpu_sched_fcfs_total",
			"Instructions placed first-come-first-serve (no affinity match).").With(),
		affinityRebinds: reg.Counter("gptpu_sched_affinity_rebinds_total",
			"Affinity entries rebound to a new device after their bound device left the pool.").With(),
		lostRetries: reg.Counter("gptpu_device_lost_retries_total",
			"Instructions re-dispatched after a device failed mid-flight.").With(),
		transientRetries: reg.Counter("gptpu_fault_transient_retries_total",
			"Instructions retried (with virtual backoff) after an injected transient fault.").With(),
		retryExhausted: reg.Counter("gptpu_retry_budget_exhausted_total",
			"Instructions failed because the dispatch retry budget ran out.").With(),
		graphSubmits: reg.Counter("gptpu_graph_submits_total",
			"Dataflow graphs submitted.").With(),
		graphNodes: reg.Counter("gptpu_graph_nodes_total",
			"Dataflow-graph nodes executed (all kinds).").With(),
		graphChipEdges: reg.Counter("gptpu_graph_onchip_intermediates_total",
			"Graph intermediates that stayed in on-chip memory (no host round trip).").With(),
	}
}
