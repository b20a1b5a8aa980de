package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ClusterBench measures the cluster serving layer's aggregate
// throughput scaling: one router fronting 1, 2 and 4 in-process
// gptpu-serve daemons under a fixed closed-loop client population,
// with a seeded transient-fault plan active on every daemon (the
// router's failover machinery is part of what is being measured, not
// an idealized fair-weather path).
//
// On a single host the daemons share the CPU, so raw functional
// throughput cannot scale with daemon count. The runtime's Pace mode
// makes the experiment honest: each daemon's dispatch workers sleep
// Pace wall-seconds per virtual second of matrix-unit execution, so a
// daemon's capacity is bound by its simulated device time — sleeping
// costs no CPU — and adding daemons adds real capacity exactly the way
// adding hosts would. Virtual-time results and makespans are
// unaffected; only wall-clock occupancy is emulated.
//
// The workload shards naturally: 64 distinct weight matrices (64
// placement keys) spread over the members by rendezvous hashing, each
// request picking a key at random — the many-models serving pattern
// the weight-affinity design targets.
func ClusterBench(o Opts) *Report {
	rep := &Report{
		ID:    "cluster",
		Title: "Cluster serving: routed throughput scaling, 1 -> 4 daemons under transient faults",
		Header: []string{"daemons", "devices", "clients", "reqs", "wall", "RPS",
			"failovers", "affinity", "speedup"},
	}

	reqs, clients, pace := 256, 64, 100.0
	if o.Full {
		reqs = 512
	}

	base := runCluster(o, 1, reqs, clients, pace)
	runs := []clusterRun{base}
	for _, n := range []int{2, 4} {
		runs = append(runs, runCluster(o, n, reqs, clients, pace))
	}
	for _, r := range runs {
		rep.AddRow(fmt.Sprintf("%d", r.daemons), fmt.Sprintf("%d", 2*r.daemons),
			fmt.Sprintf("%d", clients), fmt.Sprintf("%d", reqs),
			secs(r.wall.Seconds()), f2(r.rps),
			fmt.Sprintf("%.0f", r.failovers), fmt.Sprintf("%d", r.affinity),
			f2x(r.rps/base.rps))
		if n := r.failed.total(); n > 0 {
			rep.AddNote("WARNING: %d-daemon run: %d client calls failed (%s) — its RPS counts them as served",
				r.daemons, n, r.failed.String())
		}
	}

	rep.AddNote("each daemon: 2 devices, 2 dispatch workers, pace %.0f (workers sleep pace x virtual "+
		"matrix-unit time, so capacity tracks simulated devices, not host cores)", pace)
	rep.AddNote("fault plan: 2%% transient exec faults per daemon (seeded) — retryable errors failover " +
		"through the router to the key's next replica")
	rep.AddNote("workload: %d closed-loop clients, 64 weight keys (rendezvous-sharded), 32x32 GEMM, "+
		"micro-batching off so pacing governs capacity", clients)
	return rep
}

// clusterRun is one measured cluster configuration.
type clusterRun struct {
	daemons   int
	wall      time.Duration
	rps       float64
	failovers float64
	affinity  int
	failed    *failures
}

// runCluster boots daemons in-process behind a router, drives the
// closed-loop workload, and tears everything down.
func runCluster(o Opts, daemons, reqs, clients int, pace float64) clusterRun {
	srvs := make([]*server.Server, daemons)
	addrs := make([]string, daemons)
	for i := range srvs {
		srvs[i] = server.New(server.Config{
			Devices:         2,
			DispatchWorkers: 2,
			MaxInFlight:     128, // above the client population: capacity-bound, not shed-bound
			BatchWindow:     -1,  // batching off: pacing, not coalescing, sets the rate
			Pace:            pace,
			ShardID:         fmt.Sprintf("bench-%d", i),
			Metrics:         telemetry.NewRegistry(),
			Fault:           &fault.Config{Seed: int64(i) + 1, TransientProb: 0.02},
			// A tight in-daemon retry budget lets injected transients
			// surface as typed ErrTransient replies, so the router's
			// failover path is part of the measured workload.
			RetryBudget: 1,
		})
		if err := srvs[i].Listen("127.0.0.1:0"); err != nil {
			panic(err)
		}
		go srvs[i].Serve()
		addrs[i] = srvs[i].Addr()
	}
	rt := cluster.New(cluster.Config{
		Members:       addrs,
		ProbeInterval: -1, // stable membership during the measurement
		Retry:         server.RetryPolicy{Max: 1, Base: 2 * time.Millisecond},
		Metrics:       telemetry.NewRegistry(),
	})
	if err := rt.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	routerDone := make(chan struct{})
	go func() { defer close(routerDone); _ = rt.Serve() }()

	rng := rand.New(rand.NewSource(99))
	const keys = 64
	weights := make([]*tensor.Matrix, keys)
	for i := range weights {
		weights[i] = tensor.RandUniform(rng, 32, 32, -1, 1)
	}
	activation := tensor.RandUniform(rng, 32, 32, -1, 1)

	var issued atomic.Int64
	failed := &failures{}
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := server.DialRetry(rt.Addr(), server.RetryPolicy{Max: 4, Base: 2 * time.Millisecond})
			if err != nil {
				// The other clients drain the shared request counter.
				failed.add(err, 1)
				return
			}
			defer c.Close()
			crng := rand.New(rand.NewSource(int64(ci)))
			for {
				i := issued.Add(1)
				if i > int64(reqs) {
					return
				}
				b := weights[crng.Intn(keys)]
				if _, err := c.Gemm(activation, b, nil); err != nil {
					failed.add(err, 1)
				}
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)

	run := clusterRun{
		daemons:  daemons,
		wall:     wall,
		rps:      float64(reqs) / wall.Seconds(),
		affinity: rt.AffinitySize(),
		failed:   failed,
	}
	for _, snap := range rt.Metrics().Snapshot() {
		if snap.Name == "gptpu_cluster_failovers_total" {
			for _, s := range snap.Samples {
				run.failovers += s.Value
			}
		}
	}

	if err := rt.Shutdown(); err != nil {
		panic(err)
	}
	<-routerDone
	for _, s := range srvs {
		// Shutdown's final Sync re-reports injected-fault task errors the
		// serving path already answered as typed replies; under a fault
		// plan that is the expected teardown state, not a bench failure.
		_ = s.Shutdown()
	}
	return run
}
