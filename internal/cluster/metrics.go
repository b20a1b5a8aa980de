package cluster

import "repro/internal/telemetry"

// routeLatBuckets ladder routed end-to-end wall time from 100 µs to
// 100 s (matching the daemon's request histogram so the two layers'
// quantiles compare directly).
var routeLatBuckets = telemetry.ExpBuckets(1e-4, 10, 7)

// clusterMetrics holds the router's telemetry. Same registry
// discipline as the daemon: one registry, one exporter endpoint, the
// gptpu_cluster_ prefix keeping router counters distinct from any
// co-resident daemon's gptpu_serve_ ones. The connection gauge and
// the wire-byte counters belong to the router's server.FrontDoor.
type clusterMetrics struct {
	reg *telemetry.Registry

	inflight   *telemetry.Gauge      // requests being routed right now
	requests   *telemetry.CounterVec // by op
	replies    *telemetry.CounterVec // by status (ok / error class)
	forwards   *telemetry.CounterVec // successful backend sends, by member
	failovers  *telemetry.CounterVec // candidate advances, by reason
	affHits    *telemetry.Counter    // placements served by the affinity table
	affRebinds *telemetry.Counter    // keys that moved members (failover cost)
	probes     *telemetry.CounterVec // health probes, by outcome
	members    *telemetry.GaugeVec   // membership census, by state
	routeLat   *telemetry.HistogramVec
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &clusterMetrics{
		reg: reg,
		inflight: reg.Gauge("gptpu_cluster_inflight",
			"Requests currently being routed.").With(),
		requests: reg.Counter("gptpu_cluster_requests_total",
			"Operator requests received by the router, by operator.", "op"),
		replies: reg.Counter("gptpu_cluster_replies_total",
			"Replies written by the router, by status (ok or error class).", "status"),
		forwards: reg.Counter("gptpu_cluster_forwards_total",
			"Requests forwarded to a backend member (send succeeded), by member address.", "member"),
		failovers: reg.Counter("gptpu_cluster_failovers_total",
			"Failovers to the next placement candidate, by reason (dial, conn, shed, transient, draining).", "reason"),
		affHits: reg.Counter("gptpu_cluster_affinity_hits_total",
			"Placements answered by the weight-affinity table (warm-weight member preferred over pure rendezvous rank).").With(),
		affRebinds: reg.Counter("gptpu_cluster_affinity_rebinds_total",
			"Affinity entries that moved to a different member (a key's weights went cold on failover).").With(),
		probes: reg.Counter("gptpu_cluster_probes_total",
			"Health probes sent to members, by outcome (ok, draining, fail, timeout).", "outcome"),
		members: reg.Gauge("gptpu_cluster_members",
			"Configured members currently in each health state.", "state"),
		routeLat: reg.Histogram("gptpu_cluster_request_seconds",
			"Wall seconds from router arrival to the winning reply in hand (the socket write follows), by operator.",
			routeLatBuckets, "op"),
	}
}
