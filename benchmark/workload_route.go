package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	routeRate    = 150  // offered req/s of the timed phase
	routeSLOms   = 50.0 // latency limit behind client.slo_miss_share
	routePerKind = 32   // seeded request templates per operator kind
	routeFixed   = 4    // templates per kind of the fixed check set
	routeGemmN   = 128  // GEMM operand side
	routeKeys    = 16   // distinct GEMM weight matrices (placement keys)
	routeBigN    = 256  // Add / Conv2D / Mean operand side
	// routeErrLimit is the accepted error, in percent, of any of the four
	// arms on [0,1) operands against its float32 reference; the largest
	// measured is 0.4 % (Conv2D).
	routeErrLimit = 1.5
)

// template is one request of the mix with everything its reply is
// checked against. No arm of the mix is batchable (the GEMMs carry
// NoBatch), so every reply must be bit-identical to the library result.
type template struct {
	op   server.MsgType
	a, b *tensor.Matrix // b nil for Mean
	opts *server.CallOpts
	ref  *tensor.Matrix // float32 reference
	lib  uint64         // checksum of the library result
}

// routeMixed is the open-loop routed workload: seeded Poisson arrivals
// of an equal mix of GEMM 128x128 (16 weight keys, NoBatch), Add
// 256x256, Conv2D 256x256 * 3x3 and Mean 256x256, through one router
// (probing off) to two daemons.
type routeMixed struct {
	tmpl  []template // from --seed: what the timed phase sends, kind-major
	fixed []template // from checkSeed: what result_err_pct is computed on
	plan  []int      // seeded, balanced sequence over tmpl, cycled
	seed  int64

	libCtx  *gptpu.Context
	daemons []*daemon
	recs    []*obs.Recorder // per daemon; nil entries unless traced
	rt      *cluster.Router
	rtDone  chan struct{}
	clis    []*server.Client
}

// genRoute builds perKind templates of each of the four kinds.
func genRoute(rng *rand.Rand, lib *gptpu.Context, perKind int) ([]template, error) {
	keys := make([]*tensor.Matrix, routeKeys)
	for i := range keys {
		keys[i] = uniform01(rng, routeGemmN, routeGemmN)
	}
	big := func() *tensor.Matrix { return uniform01(rng, routeBigN, routeBigN) }
	var ts []template
	for i := 0; i < perKind; i++ {
		a := uniform01(rng, routeGemmN, routeGemmN)
		ts = append(ts, template{op: server.MsgGemm, a: a, b: keys[i%routeKeys],
			opts: &server.CallOpts{NoBatch: true}, ref: blas.Gemm(a, keys[i%routeKeys])})
	}
	for i := 0; i < perKind; i++ {
		a, b := big(), big()
		ts = append(ts, template{op: server.MsgAdd, a: a, b: b, ref: addRef(a, b)})
	}
	for i := 0; i < perKind; i++ {
		a, k := big(), uniform01(rng, 3, 3)
		ts = append(ts, template{op: server.MsgConv2D, a: a, b: k, ref: convRef(a, k)})
	}
	for i := 0; i < perKind; i++ {
		a := big()
		ts = append(ts, template{op: server.MsgMean, a: a, ref: meanRef(a)})
	}
	for i := range ts {
		out, err := libraryResult(lib, &ts[i])
		if err != nil {
			return nil, fmt.Errorf("route_mixed library result: %w", err)
		}
		ts[i].lib = checksum(out)
	}
	return ts, nil
}

func (w *routeMixed) setup(seed int64, traced bool) error {
	w.seed = seed
	w.libCtx = gptpu.Open(gptpu.Config{Devices: 2})
	rng := rand.New(rand.NewSource(seed))
	var err error
	if w.tmpl, err = genRoute(rng, w.libCtx, routePerKind); err != nil {
		return err
	}
	if w.fixed, err = genRoute(rand.New(rand.NewSource(checkSeed)), w.libCtx, routeFixed); err != nil {
		return err
	}
	w.plan = balancedPlan(rng, len(w.tmpl), 1<<12)

	var addrs []string
	for i := 0; i < 2; i++ {
		var rec *obs.Recorder
		if traced {
			rec = obs.New(obs.Config{Capacity: 1 << 13})
		}
		d, err := bootDaemon(server.Config{Devices: 2, MaxInFlight: 1024, Obs: rec,
			ShardID: fmt.Sprintf("bench-%d", i)})
		if err != nil {
			return err
		}
		w.daemons = append(w.daemons, d)
		w.recs = append(w.recs, rec)
		addrs = append(addrs, d.srv.Addr())
	}
	w.rt = cluster.New(cluster.Config{Members: addrs, ProbeInterval: -1})
	if err := w.rt.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("router listen: %w", err)
	}
	w.rtDone = make(chan struct{})
	go func() { defer close(w.rtDone); _ = w.rt.Serve() }()
	if w.clis, err = dialN(w.rt.Addr(), runtime.NumCPU()); err != nil {
		return err
	}
	// Warm-up: one request of each kind to each daemon directly, so every
	// daemon starts the check in the same state whichever way the router
	// (whose placement hashes the ephemeral ports) would have split them.
	for _, d := range w.daemons {
		cli, err := server.Dial(d.srv.Addr())
		if err != nil {
			return fmt.Errorf("route_mixed warm-up: %w", err)
		}
		for k := 0; k < 4 && err == nil; k++ {
			_, err = w.call(cli, &w.tmpl[k*routePerKind])
		}
		cli.Close()
		if err != nil {
			return fmt.Errorf("route_mixed warm-up: %w", err)
		}
	}
	return nil
}

// libraryResult computes t through a library context the way the
// daemon's execute arm does: fresh buffers, one operator.
func libraryResult(ctx *gptpu.Context, t *template) (*tensor.Matrix, error) {
	op := ctx.NewOp()
	a := ctx.CreateMatrixBuffer(t.a)
	var out *tensor.Matrix
	switch t.op {
	case server.MsgGemm:
		out = op.Gemm(a, ctx.CreateMatrixBuffer(t.b))
	case server.MsgAdd:
		out = op.Add(a, ctx.CreateMatrixBuffer(t.b))
	case server.MsgConv2D:
		out = op.Conv2D(a, ctx.CreateMatrixBuffer(t.b))
	case server.MsgMean:
		out = tensor.FromSlice(1, 1, []float32{op.Mean(a)})
	}
	return out, op.Err()
}

func (w *routeMixed) call(cli *server.Client, t *template) (*tensor.Matrix, error) {
	return cli.Call(t.op, t.a, t.b, t.opts)
}

// verify classifies one reply: bit-identical to the library result,
// and within tolerance of the float32 reference.
func (t *template) verify(m *tensor.Matrix) string {
	switch {
	case checksum(m) != t.lib:
		return failIdentical
	case errPct(t.ref, m) > routeErrLimit:
		return failTolerance
	}
	return ""
}

// check sends every template once, one request at a time: the seeded
// set to one daemon directly for virtual_ms_per_op (the router adds no
// virtual time, and its placement, which hashes the daemons' ephemeral
// ports, would change the sequence each daemon sees from run to run),
// then the fixed set through the router for result_err_pct.
func (w *routeMixed) check() checked {
	var c checked
	pass := func(cli *server.Client, ts []template) (errSum float64) {
		for i := range ts {
			t := &ts[i]
			c.sent++
			m, err := w.call(cli, t)
			if err != nil {
				c.fail(errClass(err))
				continue
			}
			errSum += errPct(t.ref, m)
			if class := t.verify(m); class != "" {
				c.fail(class)
				continue
			}
			c.ok++
		}
		return errSum
	}
	d0 := w.daemons[0].srv
	if direct, err := server.Dial(d0.Addr()); err != nil {
		c.sent++
		c.fail(errClass(err))
	} else {
		v0 := d0.Runtime().Elapsed()
		pass(direct, w.tmpl)
		c.virtualMS = (d0.Runtime().Elapsed() - v0).Seconds() * 1e3 / float64(len(w.tmpl))
		direct.Close()
	}
	c.errPct = pass(w.clis[0], w.fixed) / float64(len(w.fixed))
	return c
}

func (w *routeMixed) run(d time.Duration, m *meter, sl *spanLog) *phase {
	send := func(i int, due time.Time) (time.Time, string) {
		t := &w.tmpl[w.plan[i%len(w.plan)]]
		t0 := time.Now()
		m, err := w.call(w.clis[i%len(w.clis)], t)
		t1 := time.Now()
		if sl != nil {
			root := sl.add("route_mixed.request", due, t1, -1, int64(i))
			sl.add("client.sched_lag", due, t0, root, int64(i))
			sl.add("cluster.call", t0, t1, root, int64(i))
		}
		if err != nil {
			return t1, errClass(err)
		}
		return t1, t.verify(m)
	}
	return openLoop(d, routeRate, w.seed, m, send, func() { closeAll(w.clis) })
}

func (w *routeMixed) counters() counters {
	c := poolCounters()
	for _, d := range w.daemons {
		c.add(runtimeCounters(d.srv.Runtime()))
		c.add(serverCounters(d.srv))
	}
	t := familyTotals(w.rt.Metrics())
	c["cluster_requests"] = t["gptpu_cluster_requests_total"]
	c["cluster_forwards"] = t["gptpu_cluster_forwards_total"]
	c["cluster_failovers"] = t["gptpu_cluster_failovers_total"]
	c["cluster_aff_hits"] = t["gptpu_cluster_affinity_hits_total"]
	return c
}

func (w *routeMixed) registry() *telemetry.Registry { return w.daemons[0].srv.Metrics() }

// layers replays the server layer against one daemon directly, with
// one sample request per kind, and measures the router hop: the same
// 200 planned requests, one at a time, routed and direct.
func (w *routeMixed) layers(v values, _ time.Duration) {
	var samples []sampleReq
	for k := 0; k < 4; k++ {
		t := &w.tmpl[k*routePerKind]
		samples = append(samples, sampleReq{op: t.op, a: t.a, b: t.b, opts: t.opts,
			lib: func() { _, _ = libraryResult(w.libCtx, t) }}) // timing replay: the result was checked in set-up
	}
	direct := w.daemons[0].srv.Addr()
	serverLayer(v, direct, samples)

	v["cluster.affinity_keys"] = float64(w.rt.AffinitySize())
	cli, err := server.Dial(direct)
	if err != nil {
		return
	}
	defer cli.Close()
	trip := func(c *server.Client) float64 {
		var us []float64
		for i := 0; i < 200; i++ {
			t := &w.tmpl[w.plan[i]]
			t0 := time.Now()
			if _, err := w.call(c, t); err != nil {
				continue
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return median(us)
	}
	v["cluster.hop_us"] = trip(w.clis[0]) - trip(cli)
}

func (w *routeMixed) stages() map[string]float64 { return stageP50s(w.recs...) }

func (w *routeMixed) close() {
	closeAll(w.clis)
	if w.rt != nil {
		_ = w.rt.Shutdown() // Shutdown only reports nil
		<-w.rtDone
	}
	for _, d := range w.daemons {
		d.stop()
	}
	w.libCtx.Close()
}
