// Package cluster is the GPTPU cluster serving layer: a stdlib-only
// router that fronts N gptpu-serve daemons behind one address,
// speaking the same wire protocol on both sides (clients need no new
// code — a router looks exactly like a bigger daemon). Its client side
// is the daemon's own server.FrontDoor: the router supplies only its
// aggregate health and the handler that places, forwards and relays
// an operator frame.
//
// The paper's serving model (section 5) shares one host's Edge TPUs
// among local processes; this layer extends the same
// accelerator-as-a-service idea across daemons. Three mechanisms carry
// the cluster semantics:
//
//   - Weight-affinity placement: requests shard by the content hash of
//     their weight matrix (server.WeightKey — the same fingerprint the
//     daemon's micro-batcher caches weight buffers under), ranked over
//     healthy members by rendezvous hashing. Repeat traffic for a
//     model therefore lands on the member whose batcher already holds
//     its quantized weights, and membership churn remaps only the keys
//     the churned member owned.
//
//   - Replica failover: a key's rendezvous rank order is its replica
//     list. Sheds, transient device faults, draining answers, and lost
//     connections advance to the next candidate; client-fault answers
//     (bad request, deadline, version) return immediately. Operators
//     are pure (no server-side state is written by a request), so
//     resending after a lost connection cannot duplicate side effects.
//
//   - Health probing: a background prober pings every member (the same
//     enriched probe `gptpu-serve -check` uses), ejecting members
//     after consecutive failures and re-admitting them the moment a
//     probe succeeds. Probe replies distinguish draining from dead, so
//     a rolling restart drains without strikes.
//
// Requests carry their trace IDs through the router hop, so one trace
// ID names the same request in the router's flight recorder and the
// backend daemon's.
package cluster

import (
	"errors"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

const (
	// probeTimeout bounds one member health probe.
	probeTimeout = 2 * time.Second
	// deadStrikes is how many consecutive failures (probe or forward)
	// eject a member from suspect to dead.
	deadStrikes = 2
	// affinityCap bounds the weight-affinity table, in placement keys.
	affinityCap = 4096
)

// Config configures a cluster router.
type Config struct {
	// Members lists the backend daemon addresses. Membership is static
	// per router process; health state is dynamic.
	Members []string
	// ShardID is the identity the router reports in its own health
	// probe replies (empty = unnamed).
	ShardID string
	// ProbeInterval is the health-probe period (0 = 1s, negative
	// disables background probing — tests drive ProbeNow directly).
	ProbeInterval time.Duration
	// Metrics is the registry for gptpu_cluster_ telemetry (nil = a
	// fresh registry, exposed via Metrics).
	Metrics *telemetry.Registry
	// Obs is the router's flight recorder (nil disables tracing).
	Obs *obs.Recorder
	// Logger receives structured routing logs (nil = discard).
	Logger *slog.Logger
}

// Router is the cluster front door: it serves client connections
// through the daemon's own server.FrontDoor, places each operator
// request on a member by weight affinity, fails over down the
// rendezvous rank order, and relays the winning reply.
type Router struct {
	cfg  Config
	set  *memberSet
	aff  *affinity
	met  *clusterMetrics
	rec  *obs.Recorder
	log  *slog.Logger
	door *server.FrontDoor

	mu        sync.Mutex
	probeStop chan struct{}
	probeDone chan struct{}
	probeOff  bool // Shutdown stopped probing for good
}

// New builds a router over the configured member addresses. Members
// start healthy (optimistic: the first failed forward or probe demotes
// them) so a cold router serves immediately instead of blackholing
// until the first probe round.
func New(cfg Config) *Router {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if cfg.Obs != nil {
		cfg.Obs.Export(reg)
	}
	r := &Router{
		cfg: cfg,
		set: newMemberSet(cfg.Members),
		aff: newAffinity(affinityCap),
		met: newClusterMetrics(reg),
		rec: cfg.Obs,
		log: logger,
	}
	r.door = server.NewFrontDoor("gptpu_cluster", reg, cfg.Obs, logger, server.DoorOwner{
		Health:  r.health,
		Handle:  r.handleRequest,
		Settle:  func() { r.met.inflight.Add(-1) },
		TraceOp: "route:",
	})
	r.updateStateGauges()
	return r
}

// Listen binds the router's TCP front door.
func (r *Router) Listen(addr string) error { return r.door.Listen(addr) }

// Addr returns the bound listen address (empty before Listen).
func (r *Router) Addr() string { return r.door.Addr() }

// Metrics returns the router's telemetry registry.
func (r *Router) Metrics() *telemetry.Registry { return r.met.reg }

// Flight returns the router's flight recorder (nil when disabled).
func (r *Router) Flight() *obs.Recorder { return r.rec }

// Serve accepts client connections until Shutdown. It also starts the
// background health prober (unless ProbeInterval is negative). A
// graceful shutdown returns nil.
func (r *Router) Serve() error {
	if r.Addr() == "" {
		return errors.New("cluster: Serve before Listen")
	}
	r.startProber()
	return r.door.Serve()
}

// Shutdown drains the router: stop probing; the front door stops
// accepting, answers new requests with ErrShuttingDown, waits for
// in-flight routed requests and closes client connections; then the
// member connections close. Idempotent.
func (r *Router) Shutdown() error {
	r.stopProber()
	if !r.door.Drain() {
		return nil
	}
	for _, m := range r.set.all() {
		m.mu.Lock()
		cli := m.cli
		m.cli = nil
		m.mu.Unlock()
		if cli != nil {
			cli.Close()
		}
	}
	return nil
}

// Abort is the chaos hard-kill (server.FrontDoor.Abort): the listener
// and every client connection drop without a drain.
func (r *Router) Abort() { r.door.Abort() }

// Snapshot reports every member's current health state (operator
// introspection and tests).
func (r *Router) Snapshot() []MemberStatus {
	out := make([]MemberStatus, 0, len(r.set.all()))
	for _, m := range r.set.all() {
		st, strikes, h := m.snapshot()
		out = append(out, MemberStatus{
			Addr: m.addr, State: st.String(), Strikes: strikes,
			ShardID: h.ShardID, Devices: h.Devices,
		})
	}
	return out
}

// AffinitySize returns the live affinity-table entry count.
func (r *Router) AffinitySize() int { return r.aff.size() }

// health aggregates the router's probe-visible state: its own shard
// identity and the summed device count of healthy members (the
// capacity a client of the router actually has).
func (r *Router) health() server.HealthInfo {
	devices := 0
	for _, m := range r.set.all() {
		if st, _, h := m.snapshot(); st == stateHealthy {
			devices += h.Devices
		}
	}
	return server.HealthInfo{ShardID: r.cfg.ShardID, Devices: devices}
}

// updateStateGauges recomputes the per-state membership census.
func (r *Router) updateStateGauges() {
	var counts [len(memberStates)]int
	for _, m := range r.set.all() {
		st, _, _ := m.snapshot()
		counts[int(st)]++
	}
	for _, st := range memberStates {
		r.met.members.With(st.String()).Set(float64(counts[int(st)]))
	}
}
