package cluster

import "repro/internal/telemetry"

// clusterMetrics holds the router's telemetry. Same registry
// discipline as the daemon: one registry, one exporter endpoint, the
// gptpu_cluster_ prefix keeping router counters distinct from any
// co-resident daemon's gptpu_serve_ ones. The connection gauge, the
// wire-byte counters and the request, reply and latency families
// belong to the router's server.FrontDoor.
type clusterMetrics struct {
	reg *telemetry.Registry

	inflight   *telemetry.Gauge      // requests being routed right now
	forwards   *telemetry.CounterVec // successful backend sends, by member
	failovers  *telemetry.CounterVec // candidate advances, by reason
	affHits    *telemetry.Counter    // placements served by the affinity table
	affRebinds *telemetry.Counter    // keys that moved members (failover cost)
	probes     *telemetry.CounterVec // health probes, by outcome
	members    *telemetry.GaugeVec   // membership census, by state
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &clusterMetrics{
		reg: reg,
		inflight: reg.Gauge("gptpu_cluster_inflight",
			"Requests currently being routed.").With(),
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
	}
}
