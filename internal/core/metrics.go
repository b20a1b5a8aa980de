package core

import "repro/internal/telemetry"

// vlatBuckets ladder virtual-time latencies from 1 µs to 10 s; the
// paper's per-instruction latencies (Table 1) and whole-operator
// makespans both land inside this range.
var vlatBuckets = telemetry.ExpBuckets(1e-6, 10, 8)

// wallBuckets ladder real host wall time from 10 µs to 100 s: the
// second time dimension, measuring what the runtime itself costs.
var wallBuckets = telemetry.ExpBuckets(1e-5, 10, 8)

// runtimeMetrics holds the context's telemetry handles. Everything the
// runtime records lives in one registry (Context.Metrics) so the
// Prometheus/JSON exports, Context.Stats and gptpu-info's catalog all
// read the same source.
type runtimeMetrics struct {
	reg *telemetry.Registry

	// OPQ (front-end task queue).
	tasksEnqueued *telemetry.Counter
	opqDepth      *telemetry.Gauge

	// IQ (back-end instruction queue).
	iqDepth   *telemetry.Gauge
	instrs    *telemetry.CounterVec   // by instruction kind
	instrVLat *telemetry.HistogramVec // by instruction kind, virtual seconds
	opVLat    *telemetry.HistogramVec // by operator, virtual seconds

	// Real wall time the host spends dispatching one IQ batch
	// (including functional closures) — the second time dimension.
	dispatchWall *telemetry.Histogram
	// Dispatch-engine internals: wall time an instruction waits in the
	// IQ between enqueue and issue, and per-worker-slot occupancy.
	queueWait   *telemetry.Histogram
	workerBusy  *telemetry.CounterVec // by worker slot, wall seconds
	workerItems *telemetry.CounterVec // by worker slot

	// Tensorizer (host-side data transformation).
	quantCacheHits   *telemetry.Counter
	quantCacheMisses *telemetry.Counter
	tensorizeVSec    *telemetry.Counter

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
		tasksEnqueued: reg.Counter("gptpu_tasks_enqueued_total",
			"OPQ tasks submitted via Enqueue.").With(),
		opqDepth: reg.Gauge("gptpu_opq_depth",
			"OPQ tasks currently running (enqueued, not yet finished).").With(),
		iqDepth: reg.Gauge("gptpu_iq_depth",
			"IQ instructions enqueued to the dispatch engine and not yet completed.").With(),
		instrs: reg.Counter("gptpu_instructions_total",
			"Edge TPU instructions dispatched, by instruction kind.", "op"),
		instrVLat: reg.Histogram("gptpu_instruction_vlatency_vseconds",
			"Virtual seconds from instruction-ready to download-complete, by instruction kind.",
			vlatBuckets, "op"),
		opVLat: reg.Histogram("gptpu_operator_vlatency_vseconds",
			"Virtual seconds one operator invocation occupies its stream, by operator.",
			vlatBuckets, "op"),
		dispatchWall: reg.Histogram("gptpu_dispatch_wall_seconds",
			"Real wall seconds the host spends dispatching one IQ batch.",
			wallBuckets).With(),
		queueWait: reg.Histogram("gptpu_dispatch_queue_wait_seconds",
			"Real wall seconds an instruction waits in the IQ from enqueue to issue.",
			wallBuckets).With(),
		workerBusy: reg.Counter("gptpu_dispatch_worker_busy_seconds_total",
			"Real wall seconds each dispatch-worker slot spent charging and executing instructions.", "worker"),
		workerItems: reg.Counter("gptpu_dispatch_worker_items_total",
			"Instructions processed by each dispatch-worker slot.", "worker"),
		quantCacheHits: reg.Counter("gptpu_quant_cache_hits_total",
			"Operator invocations that reused a buffer's cached quantization/model.").With(),
		quantCacheMisses: reg.Counter("gptpu_quant_cache_misses_total",
			"Quantization/model encodes performed by the Tensorizer.").With(),
		tensorizeVSec: reg.Counter("gptpu_tensorizer_vseconds_total",
			"Virtual host seconds spent quantizing and encoding models.").With(),
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
