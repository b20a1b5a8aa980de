package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	serveN       = 32   // operand side: the many-tiny-requests regime
	serveActs    = 64   // seeded activation pool
	serveFixed   = 16   // activations of the fixed check set
	serveWeights = 4    // shared weight matrices (batch keys)
	serveRate    = 1500 // offered req/s of the timed phase
	serveSLOms   = 10.0 // latency limit behind client.slo_miss_share
	// serveErrLimit is the accepted error, in percent, of a batched
	// 32x32 reply against blas.Gemm; stacking shares one scale among
	// riders, so it is looser than the library's. 0.12 % is measured for
	// a batch of one.
	serveErrLimit = 1.0
)

// ladderRates are the rate-ladder steps run after the timed phase.
var ladderRates = []int{750, 3000, 6000}

// serveSmall is the open-loop small-request workload: seeded Poisson
// arrivals of batchable 32x32 GEMMs over nproc multiplexed connections
// to one daemon with batching at its defaults.
type serveSmall struct {
	in    serveInputs // from --seed: what the timed phase sends
	fixed serveInputs // from checkSeed: what result_err_pct is computed on
	plan  []int       // seeded, balanced sequence of act*serveWeights+weight over in, cycled
	seed  int64

	libCtx *gptpu.Context // private library context the served replies are compared with
	d      *daemon
	clis   []*server.Client
	rec    *obs.Recorder // nil unless traced
}

// serveInputs is a pool of activations, the shared weights, and for
// every pair the float32 reference and the library result's checksum.
type serveInputs struct {
	acts, weights []*tensor.Matrix
	refs          [][]*tensor.Matrix // [act][weight]
	lib           [][]uint64         // [act][weight]
}

func genServe(rng *rand.Rand, lib *gptpu.Context, acts int) (serveInputs, error) {
	var in serveInputs
	for i := 0; i < serveWeights; i++ {
		in.weights = append(in.weights, uniform01(rng, serveN, serveN))
	}
	for i := 0; i < acts; i++ {
		in.acts = append(in.acts, uniform01(rng, serveN, serveN))
	}
	op := lib.NewOp()
	in.refs = make([][]*tensor.Matrix, acts)
	in.lib = make([][]uint64, acts)
	for a := range in.acts {
		for _, wt := range in.weights {
			in.refs[a] = append(in.refs[a], blas.Gemm(in.acts[a], wt))
			out := op.Gemm(lib.CreateMatrixBuffer(in.acts[a]), lib.CreateMatrixBuffer(wt))
			if err := op.Err(); err != nil {
				return in, fmt.Errorf("serve_small library result: %w", err)
			}
			in.lib[a] = append(in.lib[a], checksum(out))
		}
	}
	return in, nil
}

func (w *serveSmall) setup(seed int64, traced bool) error {
	w.seed = seed
	w.libCtx = gptpu.Open(gptpu.Config{Devices: 2})
	rng := rand.New(rand.NewSource(seed))
	var err error
	if w.in, err = genServe(rng, w.libCtx, serveActs); err != nil {
		return err
	}
	if w.fixed, err = genServe(rand.New(rand.NewSource(checkSeed)), w.libCtx, serveFixed); err != nil {
		return err
	}
	w.plan = balancedPlan(rng, serveActs*serveWeights, 1<<14)

	if traced {
		w.rec = obs.New(obs.Config{Capacity: 1 << 15})
	}
	// MaxInFlight 1024: a short host stall queues instead of shedding.
	if w.d, err = bootDaemon(server.Config{Devices: 2, MaxInFlight: 1024, Obs: w.rec}); err != nil {
		return err
	}
	if w.clis, err = dialN(w.d.srv.Addr(), runtime.NumCPU()); err != nil {
		return err
	}
	for _, in := range []*serveInputs{&w.fixed, &w.in} { // warm-up: every weight cached, one request at a time
		for _, wt := range in.weights {
			if _, err := w.clis[0].Gemm(in.acts[0], wt, nil); err != nil {
				return fmt.Errorf("serve_small warm-up: %w", err)
			}
		}
	}
	return nil
}

// check sends one request at a time: every pair of the fixed set,
// batchable (a batch of one), for result_err_pct; then every seeded
// pair batchable for virtual_ms_per_op, and again with NoBatch, whose
// reply must be bit-identical to the library result.
func (w *serveSmall) check() checked {
	var c checked
	cli := w.clis[0]
	pass := func(in *serveInputs, opts *server.CallOpts, verify func(a, wi int, m *tensor.Matrix) string) {
		for a := range in.acts {
			for wi := range in.weights {
				c.sent++
				m, err := cli.Gemm(in.acts[a], in.weights[wi], opts)
				if err != nil {
					c.fail(errClass(err))
				} else if class := verify(a, wi, m); class != "" {
					c.fail(class)
				} else {
					c.ok++
				}
			}
		}
	}
	var errSum float64
	within := func(in *serveInputs) func(int, int, *tensor.Matrix) string {
		return func(a, wi int, m *tensor.Matrix) string {
			e := errPct(in.refs[a][wi], m)
			errSum += e
			if e > serveErrLimit {
				return failTolerance
			}
			return ""
		}
	}
	pass(&w.fixed, nil, within(&w.fixed))
	c.errPct = errSum / (serveFixed * serveWeights)

	v0 := w.d.srv.Runtime().Elapsed()
	pass(&w.in, nil, within(&w.in))
	c.virtualMS = (w.d.srv.Runtime().Elapsed() - v0).Seconds() * 1e3 / (serveActs * serveWeights)

	pass(&w.in, &server.CallOpts{NoBatch: true}, func(a, wi int, m *tensor.Matrix) string {
		if checksum(m) != w.in.lib[a][wi] {
			return failIdentical
		}
		return ""
	})
	return c
}

func (w *serveSmall) run(d time.Duration, m *meter, sl *spanLog) *phase {
	return w.runAt(d, serveRate, m, sl)
}

// operands returns request i's activation and weight pool indexes.
func (w *serveSmall) operands(i int) (a, wi int) {
	r := w.plan[i%len(w.plan)]
	return r / serveWeights, r % serveWeights
}

func (w *serveSmall) runAt(d time.Duration, rate float64, mt *meter, sl *spanLog) *phase {
	send := func(i int, due time.Time) (time.Time, string) {
		a, wi := w.operands(i)
		t0 := time.Now()
		m, err := w.clis[i%len(w.clis)].Gemm(w.in.acts[a], w.in.weights[wi], nil)
		t1 := time.Now()
		if sl != nil {
			root := sl.add("serve_small.request", due, t1, -1, int64(i))
			sl.add("client.sched_lag", due, t0, root, int64(i))
			sl.add("server.call", t0, t1, root, int64(i))
		}
		switch {
		case err != nil:
			return t1, errClass(err)
		case errPct(w.in.refs[a][wi], m) > serveErrLimit:
			return t1, failTolerance
		}
		return t1, ""
	}
	return openLoop(d, rate, w.seed, mt, send, func() { closeAll(w.clis) })
}

func (w *serveSmall) counters() counters {
	c := runtimeCounters(w.d.srv.Runtime())
	c.add(serverCounters(w.d.srv))
	c.add(poolCounters())
	return c
}

func (w *serveSmall) registry() *telemetry.Registry { return w.d.srv.Metrics() }

// layers replays the server layer against the live daemon and climbs
// the rate ladder, one step per third of the budget.
func (w *serveSmall) layers(v values, budget time.Duration) {
	ai, wi := w.operands(0)
	a, wt := w.in.acts[ai], w.in.weights[wi]
	op := w.libCtx.NewOp()
	serverLayer(v, w.d.srv.Addr(), []sampleReq{{
		op: server.MsgGemm, a: a, b: wt,
		lib: func() { op.Gemm(w.libCtx.CreateMatrixBuffer(a), w.libCtx.CreateMatrixBuffer(wt)) },
	}})

	step := budget / time.Duration(len(ladderRates))
	best := 0
	for _, rate := range ladderRates {
		p := w.runAt(step, float64(rate), nil, nil)
		miss := sloMissShare(p, serveSLOms)
		prefix := fmt.Sprintf("client.ladder_%d.", rate)
		v[prefix+"p50_ms"] = median(p.latMS)
		v[prefix+"slo_miss_share"] = miss
		if miss <= 0.01 && !backlogGrew(p) {
			best = rate
		}
	}
	v["client.max_rate_in_slo_rps"] = float64(best)
}

func (w *serveSmall) stages() map[string]float64 { return stageP50s(w.rec) }

func (w *serveSmall) close() {
	closeAll(w.clis)
	w.d.stop()
	w.libCtx.Close()
}
