package main

import (
	"fmt"
	"time"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/apps/backprop"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/gaussian"
	"repro/internal/apps/hotspot3d"
	"repro/internal/apps/lud"
	"repro/internal/apps/pagerank"
	"repro/internal/blas"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// appNames fixes the order the six non-GEMM Table 3 applications run
// in each round, and the <app> part of the apps.* metric names.
var appNames = []string{"pagerank", "hotspot3d", "backprop", "lud", "gaussian", "blackscholes"}

// appErrLimit is the accepted error (errPct), in percent, of each
// application's functional result against its CPU path at the
// benchmark's sizes: about three times the largest of 48 seeds (LUD
// and Backprop are bimodal across seeds: 1.4 or 3.6 %, 0.76 or 1.08 %).
var appErrLimit = map[string]float64{
	"pagerank": 0.7, "hotspot3d": 3, "backprop": 3, "lud": 10, "gaussian": 0.7, "blackscholes": 0.5,
}

// appCase is one application bound to its generated input.
type appCase struct {
	name string
	// tpu runs the functional GPTPU implementation on a fresh context.
	tpu func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error)
	// ref is the float32 CPU path's result; cpuVirtual its virtual time
	// on one simulated core, the base of apps.<app>_speedup_x.
	ref        []*tensor.Matrix
	cpuVirtual float64 // ms

	sum       uint64  // result checksum, fixed by check
	errPct    float64 // from check
	mapePct   float64 // from check: Table 4(a)'s metric, reported, never checked
	virtualMS float64 // from check
}

// appsLib is the closed-loop application round: one caller, one op =
// the six applications in turn, each functional on a fresh two-device
// context, via each package's Config.Generate and RunTPU.
type appsLib struct {
	cases  []*appCase // from --seed: what the timed phase runs
	fixed  []*appCase // from checkSeed: what result_err_pct is computed on
	traced bool

	acc   counters             // runtime counters of every context closed so far
	hostM map[string][]float64 // per-app host ms of the phase in progress
	reg   *telemetry.Registry  // the last context's registry
}

func (w *appsLib) setup(seed int64, traced bool) error {
	w.traced = traced
	w.acc = make(counters)
	w.cases, w.fixed = genApps(seed), genApps(checkSeed)
	for _, c := range w.cases { // warm-up: one round
		if _, _, _, err := w.runApp(c); err != nil {
			return fmt.Errorf("apps_lib warm-up %s: %w", c.name, err)
		}
	}
	return nil
}

// genApps generates the six applications' inputs from seed with each
// package's Config.Generate and runs its CPU path for the reference.
func genApps(seed int64) []*appCase {
	cpu := func() *blas.CPU { return blas.NewCPU(nil, 1) }
	ms := func(m apps.Metrics) float64 { return m.Elapsed.Seconds() * 1e3 }

	pr := pagerank.Config{N: 1024, Iters: 10, Seed: seed}
	graph := pr.Generate()
	prRef, prCPU := pagerank.RunCPU(cpu(), 1, pr, graph)

	hs := hotspot3d.Config{N: 256, Layers: 4, Iters: 3, Seed: seed}
	temp, power := hs.Generate()
	hsRef, hsCPU := hotspot3d.RunCPU(cpu(), 1, hs, temp, power)

	bp := backprop.Config{Batch: 256, In: 256, Hidden: 256, Seed: seed}
	net := bp.Generate()
	bpRef, bpCPU := backprop.RunCPU(cpu(), 1, bp, net)

	lu := lud.Config{N: 256, Seed: seed}
	luA := lu.Generate()
	luRef, luCPU := lud.RunCPU(cpu(), 1, lu, luA.Clone())

	ga := gaussian.Config{N: 256, Seed: seed}
	gaA := ga.Generate()
	gaRef, gaCPU := gaussian.RunCPU(cpu(), 1, ga, gaA.Clone())

	bs := blackscholes.Config{N: 1 << 16, Seed: seed}
	book := bs.Generate()
	bsRef, bsCPU := blackscholes.RunCPU(cpu(), 1, bs, book)

	return []*appCase{
		{name: "pagerank", ref: []*tensor.Matrix{vecMatrix(prRef)}, cpuVirtual: ms(prCPU),
			tpu: func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
				r, m, err := pagerank.RunTPU(ctx, pr, graph)
				return []*tensor.Matrix{vecMatrix(r)}, m, err
			}},
		{name: "hotspot3d", ref: hsRef, cpuVirtual: ms(hsCPU),
			tpu: func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
				return hotspot3d.RunTPU(ctx, hs, temp, power)
			}},
		{name: "backprop", ref: []*tensor.Matrix{bpRef.W1, bpRef.W2}, cpuVirtual: ms(bpCPU),
			tpu: func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
				r, m, err := backprop.RunTPU(ctx, bp, net)
				if err != nil {
					return nil, m, err
				}
				return []*tensor.Matrix{r.W1, r.W2}, m, nil
			}},
		{name: "lud", ref: []*tensor.Matrix{luRef}, cpuVirtual: ms(luCPU),
			tpu: func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
				r, m, err := lud.RunTPU(ctx, lu, luA)
				return []*tensor.Matrix{r}, m, err
			}},
		{name: "gaussian", ref: []*tensor.Matrix{gaRef}, cpuVirtual: ms(gaCPU),
			tpu: func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
				r, m, err := gaussian.RunTPU(ctx, ga, gaA)
				return []*tensor.Matrix{r}, m, err
			}},
		{name: "blackscholes", ref: []*tensor.Matrix{vecMatrix(bsRef)}, cpuVirtual: ms(bsCPU),
			tpu: func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
				r, m, err := blackscholes.RunTPU(ctx, bs, book)
				return []*tensor.Matrix{vecMatrix(r)}, m, err
			}},
	}
}

// runApp runs one application on a fresh context and returns its
// result, its virtual makespan and the host interval of the call.
func (w *appsLib) runApp(c *appCase) (res []*tensor.Matrix, m apps.Metrics, host [2]time.Time, err error) {
	ctx := gptpu.Open(gptpu.Config{Devices: 2, Trace: w.traced})
	host[0] = time.Now()
	res, m, err = c.tpu(ctx)
	host[1] = time.Now()
	w.acc.add(runtimeCounters(ctx))
	w.reg = ctx.Metrics()
	ctx.Close()
	return res, m, host, err
}

// check runs one round on the fixed datasets for result_err_pct, then
// one on the seeded datasets: its virtual time, each application's
// error against its limit, and the checksum every later round must
// reproduce.
func (w *appsLib) check() checked {
	var ck checked
	for _, set := range [][]*appCase{w.fixed, w.cases} {
		for _, c := range set {
			ck.sent++
			res, m, _, err := w.runApp(c)
			if err != nil {
				ck.fail(errClass(err))
				continue
			}
			c.sum = checksumAll(res...)
			c.virtualMS = m.Elapsed.Seconds() * 1e3
			c.errPct = errPctAll(c.ref, res)
			c.mapePct = 0
			for i := range res {
				c.mapePct += 100 * tensor.MAPE(c.ref[i], res[i]) / float64(len(res))
			}
			if c.errPct > appErrLimit[c.name] {
				ck.fail(failTolerance)
				continue
			}
			ck.ok++
		}
	}
	for _, c := range w.fixed {
		ck.errPct += c.errPct / float64(len(w.fixed))
	}
	for _, c := range w.cases {
		ck.virtualMS += c.virtualMS
	}
	return ck
}

func (w *appsLib) run(d time.Duration, m *meter, sl *spanLog) *phase {
	w.hostM = make(map[string][]float64)
	return closedLoop(d, m, func(n int) (time.Duration, string) {
		class := ""
		hosts := make([][2]time.Time, len(w.cases))
		t0 := time.Now()
		for i, c := range w.cases {
			res, _, host, err := w.runApp(c)
			hosts[i] = host
			switch {
			case class != "":
			case err != nil:
				class = errClass(err)
			case checksumAll(res...) != c.sum:
				class = failChecksum
			}
		}
		t1 := time.Now()
		root := sl.add("apps_lib.round", t0, t1, -1, int64(n))
		for i, c := range w.cases {
			sl.add("apps."+c.name, hosts[i][0], hosts[i][1], root, int64(n))
			w.hostM[c.name] = append(w.hostM[c.name], float64(hosts[i][1].Sub(hosts[i][0]))/1e6)
		}
		// The round's latency includes reading the six results for
		// their checksums (under 1 % of a round); each application's
		// own interval does not.
		return t1.Sub(t0), class
	})
}

func (w *appsLib) counters() counters {
	c := make(counters, len(w.acc))
	c.add(w.acc)
	c.add(poolCounters())
	return c
}

func (w *appsLib) registry() *telemetry.Registry { return w.reg }

// layers reports each application's host p50 from the phase just run,
// and from the fixed check set its virtual time, Figure 7 speed-up
// (one simulated CPU core's virtual time over the TPU run's) and error.
func (w *appsLib) layers(v values, _ time.Duration) {
	for _, c := range w.fixed {
		v["apps."+c.name+"_ms"] = median(w.hostM[c.name])
		v["apps."+c.name+"_virtual_ms"] = c.virtualMS
		v["apps."+c.name+"_rmse_pct"] = c.errPct
		v["apps."+c.name+"_mape_pct"] = c.mapePct
		if c.virtualMS > 0 {
			v["apps."+c.name+"_speedup_x"] = c.cpuVirtual / c.virtualMS
		}
	}
}

func (w *appsLib) stages() map[string]float64 { return nil }
func (w *appsLib) close()                     {}
