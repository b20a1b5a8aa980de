package cluster

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// serverHealth builds a HealthInfo literal (test shorthand).
func serverHealth(shard string, devices int) server.HealthInfo {
	return server.HealthInfo{ShardID: shard, Devices: devices}
}

// startDaemon boots one in-process gptpu-serve daemon on an ephemeral
// port. Cleanup shuts it down unless the test already did.
func startDaemon(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("daemon serve: %v", err)
		}
	})
	return srv
}

// startRouter boots a router over the given daemons with background
// probing off — tests drive probeNow directly for deterministic state
// transitions.
func startRouter(t *testing.T, cfg Config, daemons ...*server.Server) *Router {
	t.Helper()
	for _, d := range daemons {
		cfg.Members = append(cfg.Members, d.Addr())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	r := New(cfg)
	if err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	t.Cleanup(func() {
		if err := r.Shutdown(); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("router serve: %v", err)
		}
	})
	return r
}

func dialRouter(t *testing.T, r *Router) *server.Client {
	t.Helper()
	c, err := server.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRouterEndToEnd: mixed operators through the router compute the
// same results a direct daemon connection would — the router is
// transparent to clients (same wire protocol, same answers).
func TestRouterEndToEnd(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 1, ShardID: "s1"})
	d2 := startDaemon(t, server.Config{Devices: 1, ShardID: "s2"})
	d3 := startDaemon(t, server.Config{Devices: 1, ShardID: "s3"})
	r := startRouter(t, Config{}, d1, d2, d3)
	c := dialRouter(t, r)

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		a := tensor.RandUniform(rng, 16, 16, -1, 1)
		b := tensor.RandUniform(rng, 16, 16, -1, 1)
		got, err := c.Gemm(a, b, nil)
		if err != nil {
			t.Fatalf("gemm %d: %v", i, err)
		}
		if rmse := tensor.RMSE(blas.NaiveGemm(a, b), got); rmse > 0.05 {
			t.Fatalf("gemm %d RMSE %v", i, rmse)
		}
		sum, err := c.Add(a, b, nil)
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		for j := range sum.Data {
			want := a.Data[j] + b.Data[j]
			if diff := sum.Data[j] - want; diff > 0.1 || diff < -0.1 {
				t.Fatalf("add %d element %d: %v want %v", i, j, sum.Data[j], want)
			}
		}
		if _, err := c.Mean(a, nil); err != nil {
			t.Fatalf("mean %d: %v", i, err)
		}
	}
}

// TestRouterBytesReconcile: the router forwards each request payload
// verbatim and relays each reply verbatim, so over failover-free
// traffic with probing off the bytes its front door reads and writes
// equal, exactly, the bytes its one member's front door reads and
// writes. Either owner's writer or reader dropping a frame from its
// count breaks the equality.
func TestRouterBytesReconcile(t *testing.T) {
	d := startDaemon(t, server.Config{Devices: 1, ShardID: "s0"})
	r := startRouter(t, Config{}, d)
	c := dialRouter(t, r)
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{4, 16, 48} {
		a := tensor.RandUniform(rng, n, n, -1, 1)
		b := tensor.RandUniform(rng, n, n, -1, 1)
		k := tensor.RandUniform(rng, 3, 3, -1, 1)
		for _, call := range []func() error{
			func() error { _, err := c.Gemm(a, b, nil); return err },
			func() error { _, err := c.Add(a, b, nil); return err },
			func() error { _, err := c.Call(server.MsgSub, a, b, nil); return err },
			func() error { _, err := c.Call(server.MsgMul, a, b, nil); return err },
			func() error { _, err := c.Call(server.MsgConv2D, a, k, nil); return err },
			func() error { _, err := c.Mean(a, nil); return err },
			func() error { _, err := c.Call(server.MsgMax, a, nil, nil); return err },
		} {
			if err := call(); err != nil {
				t.Fatalf("%dx%d: %v", n, n, err)
			}
		}
	}
	// A reply is counted once its flush returns, which can be after the
	// client already holds it; the drains wait every handler out.
	r.Shutdown()
	d.Shutdown()
	if f := familyTotal(r.Metrics(), "gptpu_cluster_failovers_total"); f != 0 {
		t.Fatalf("%v failovers: the traffic was meant to be failover-free", f)
	}
	for _, dir := range []string{"read", "written"} {
		rb := familyTotal(r.Metrics(), "gptpu_cluster_bytes_"+dir+"_total")
		db := familyTotal(d.Metrics(), "gptpu_serve_bytes_"+dir+"_total")
		if rb == 0 || rb != db {
			t.Errorf("bytes %s: router %v, daemon %v — want equal and non-zero", dir, rb, db)
		}
	}
}

// familyTotal sums every sample of one metric family in reg.
func familyTotal(reg *telemetry.Registry, name string) float64 {
	total := 0.0
	for _, fam := range reg.Snapshot() {
		if fam.Name == name {
			for _, s := range fam.Samples {
				total += s.Value
			}
		}
	}
	return total
}

// replies is the router front door's reply counter, read back through
// the registry (registering a family again returns it).
func replies(r *Router) *telemetry.CounterVec {
	return r.Metrics().Counter("gptpu_cluster_replies_total", "", "status")
}

// TestRouterHealthAggregate: pinging the router answers with the
// router's own identity and the healthy members' summed device count —
// `gptpu-serve -check <router>` works against a router unchanged.
func TestRouterHealthAggregate(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 2, ShardID: "s1"})
	d2 := startDaemon(t, server.Config{Devices: 3, ShardID: "s2"})
	r := startRouter(t, Config{ShardID: "edge-router"}, d1, d2)
	r.probeNow() // learn member device counts
	c := dialRouter(t, r)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Draining {
		t.Fatalf("router health %+v", h)
	}
	if h.ShardID != "edge-router" {
		t.Fatalf("router shard %q", h.ShardID)
	}
	if h.Devices != 5 {
		t.Fatalf("aggregate devices %d, want 5", h.Devices)
	}
}

// TestRouterAffinityConcentration: every request for one weight matrix
// lands on one member (zero rebinds), and distinct weights bind
// distinct table entries — the weight-residency property that makes
// the daemon-side weight caches effective behind a router.
func TestRouterAffinityConcentration(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 1})
	d2 := startDaemon(t, server.Config{Devices: 1})
	d3 := startDaemon(t, server.Config{Devices: 1})
	r := startRouter(t, Config{}, d1, d2, d3)
	c := dialRouter(t, r)

	rng := rand.New(rand.NewSource(9))
	const models = 8
	weights := make([]*tensor.Matrix, models)
	for i := range weights {
		weights[i] = tensor.RandUniform(rng, 12, 12, -1, 1)
	}
	for round := 0; round < 5; round++ {
		for _, b := range weights {
			a := tensor.RandUniform(rng, 4, 12, -1, 1)
			if _, err := c.Gemm(a, b, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := r.AffinitySize(); got != models {
		t.Fatalf("affinity table has %d entries, want %d", got, models)
	}
	if rebinds := r.met.affRebinds.Value(); rebinds != 0 {
		t.Fatalf("%v rebinds with stable membership, want 0", rebinds)
	}
}

// TestRouterUnkeyedSpread: requests no daemon caches by content (Add,
// Mean, Conv2D and opted-out GEMMs) neither read nor bind the affinity
// table, and their sequence keys spread them over every member. The
// table is primed with every sequence key the test will draw, all bound
// to one member: a lookup would show as a hit and pull every request
// there.
func TestRouterUnkeyedSpread(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 1})
	d2 := startDaemon(t, server.Config{Devices: 1})
	d3 := startDaemon(t, server.Config{Devices: 1})
	r := startRouter(t, Config{}, d1, d2, d3)
	c := dialRouter(t, r)
	const requests = 48
	for key := uint64(1); key <= requests; key++ {
		r.aff.bind(key, d1.Addr())
	}

	rng := rand.New(rand.NewSource(12))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	k := tensor.RandUniform(rng, 3, 3, -1, 1)
	for i := 0; i < requests/4; i++ {
		for _, call := range []func() error{
			func() error { _, err := c.Add(a, b, nil); return err },
			func() error { _, err := c.Mean(a, nil); return err },
			func() error { _, err := c.Call(server.MsgConv2D, a, k, nil); return err },
			func() error { _, err := c.Gemm(a, b, &server.CallOpts{NoBatch: true}); return err },
		} {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := r.AffinitySize(); got != requests {
		t.Fatalf("affinity table has %d entries after unkeyed requests, want the %d primed", got, requests)
	}
	if hits := r.met.affHits.Value(); hits != 0 {
		t.Fatalf("%v affinity hits for unkeyed requests, want 0", hits)
	}
	if rebinds := r.met.affRebinds.Value(); rebinds != 0 {
		t.Fatalf("%v affinity rebinds for unkeyed requests, want 0", rebinds)
	}
	for _, d := range []*server.Server{d1, d2, d3} {
		if n := r.met.forwards.With(d.Addr()).Value(); n == 0 {
			t.Fatalf("member %s served none of %d unkeyed requests", d.Addr(), requests)
		}
	}
}

// TestRouterBadRequestNoFailover: a client-fault answer (shape
// mismatch) returns immediately — replaying a bad request against
// every replica would turn one client mistake into cluster-wide load.
func TestRouterBadRequestNoFailover(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 1})
	d2 := startDaemon(t, server.Config{Devices: 1})
	r := startRouter(t, Config{}, d1, d2)
	c := dialRouter(t, r)

	a := tensor.New(4, 5)
	b := tensor.New(7, 4) // inner dims mismatch
	_, err := c.Gemm(a, b, nil)
	if !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	// Two hops (daemon → router → client), one class text, one trace tag.
	if n := strings.Count(err.Error(), server.ErrBadRequest.Error()); n != 1 {
		t.Fatalf("class text %d times in %q, want once", n, err)
	}
	if n := strings.Count(err.Error(), "[trace="); n != 1 {
		t.Fatalf("trace tag %d times in %q, want once", n, err)
	}
	if n := r.met.failovers.With("shed").Value() + r.met.failovers.With("conn").Value() +
		r.met.failovers.With("transient").Value(); n != 0 {
		t.Fatalf("bad request triggered %v failovers", n)
	}
}

// TestProbeEjectionAndReadmission: a dead daemon is ejected after
// deadStrikes probe rounds and the ring keeps serving; when it is
// "replaced" (a healthy daemon at a fresh address is not expressible
// with static membership, so the test re-admits via a live probe on a
// struck member) the member rejoins without losing affinity state.
func TestProbeEjectionAndReadmission(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 1, ShardID: "s1"})
	d2 := startDaemon(t, server.Config{Devices: 1, ShardID: "s2"})
	r := startRouter(t, Config{}, d1, d2)

	// Strike d1's member to dead by hand (the deterministic equivalent
	// of two failed probe rounds), then verify a live probe re-admits.
	m := r.set.get(d1.Addr())
	m.strike(2)
	m.strike(2)
	if st, _, _ := m.snapshot(); st != stateDead {
		t.Fatalf("state %s after strikes, want dead", st)
	}
	if got := len(r.set.eligible()); got != 1 {
		t.Fatalf("%d eligible members with one dead, want 1", got)
	}

	// The ring still serves from the survivor.
	c := dialRouter(t, r)
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	if _, err := c.Gemm(a, b, nil); err != nil {
		t.Fatalf("gemm with a dead member: %v", err)
	}

	r.probeNow() // d1 is actually alive: probe succeeds, member re-admits
	st, strikes, h := m.snapshot()
	if st != stateHealthy || strikes != 0 {
		t.Fatalf("after probe: state=%s strikes=%d", st, strikes)
	}
	if h.ShardID != "s1" {
		t.Fatalf("probe did not learn shard identity: %+v", h)
	}
	if got := len(r.set.eligible()); got != 2 {
		t.Fatalf("%d eligible members after re-admission, want 2", got)
	}
}

// TestAffinityStickyAcrossReadmission: keys that failed over while
// their home member was dead STAY on the replica after the home
// re-admits — the replica's weight caches are warm now, and moving
// back would cold-start them a second time.
func TestAffinityStickyAcrossReadmission(t *testing.T) {
	d1 := startDaemon(t, server.Config{Devices: 1})
	d2 := startDaemon(t, server.Config{Devices: 1})
	d3 := startDaemon(t, server.Config{Devices: 1})
	r := startRouter(t, Config{}, d1, d2, d3)
	c := dialRouter(t, r)

	rng := rand.New(rand.NewSource(5))
	b := tensor.RandUniform(rng, 10, 10, -1, 1)
	key := server.WeightKey(b)

	send := func() {
		t.Helper()
		a := tensor.RandUniform(rng, 4, 10, -1, 1)
		if _, err := c.Gemm(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}

	send() // bind the key to its rendezvous home
	home, ok := r.aff.lookup(key)
	if !ok {
		t.Fatal("no affinity binding after first request")
	}

	// Kill the home (state only — the daemon stays up so the test stays
	// deterministic) and resend: the key fails over and rebinds.
	r.set.get(home).strike(1)
	send()
	moved, _ := r.aff.lookup(key)
	if moved == home {
		t.Fatalf("key still bound to dead member %s", home)
	}

	// Re-admit the old home. The binding must not move back.
	r.probeNow()
	if got := len(r.set.eligible()); got != 3 {
		t.Fatalf("%d eligible after re-admission, want 3", got)
	}
	rebindsBefore := r.met.affRebinds.Value()
	send()
	if after, _ := r.aff.lookup(key); after != moved {
		t.Fatalf("binding moved from %s to %s on re-admission", moved, after)
	}
	if r.met.affRebinds.Value() != rebindsBefore {
		t.Fatal("re-admission caused a rebind")
	}
}
