package main

import (
	"errors"
	"fmt"
	"time"

	gptpu "repro"
	"repro/internal/edgetpu"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// workload is one set of seeded inputs and the way they are offered to
// the system. The end-to-end run and the layer run drive the same four
// methods; only the clock around them differs.
type workload interface {
	// setup generates the inputs from the seed, computes the float32
	// references and the library results served replies are compared
	// with, boots what the workload runs against, and warms it one op
	// at a time. traced turns on the program's own tracing
	// (Config.Trace on library contexts, Config.Obs on daemons).
	setup(seed int64, traced bool) error
	// check runs the fixed check set one op at a time. Run order is
	// set-up, check, then any number of timed phases.
	check() checked
	// run drives the timed phase for d, cutting it into m's windows and
	// recording benchmark-side spans into sl; either may be nil.
	run(d time.Duration, m *meter, sl *spanLog) *phase
	// counters reads the layer counters the program exports, summed
	// since set-up.
	counters() counters
	// registry is the telemetry registry the workload's runtime
	// records into.
	registry() *telemetry.Registry
	// layers adds the layer metrics only this workload can measure
	// (it needs the live daemons or the workload's own samples). It is
	// called after an untraced phase, before close, and may spend
	// budget on measurement of its own (the rate ladder).
	layers(v values, budget time.Duration)
	// stages returns the p50, in µs, of each server-side stage the
	// program's own request traces recorded (traced set-up only).
	stages() map[string]float64
	close()
}

var workloads = map[string]func() workload{
	"gemm_lib":    func() workload { return &gemmLib{} },
	"apps_lib":    func() workload { return &appsLib{} },
	"serve_small": func() workload { return &serveSmall{} },
	"route_mixed": func() workload { return &routeMixed{} },
}

// checked is the outcome of a workload's check set: counts in the
// embedded phase, the mean MAPE against the float32 references, and
// the virtual time one op took. Both numbers depend only on the
// inputs, because the check set is sent one op at a time.
type checked struct {
	phase
	errPct    float64
	virtualMS float64
}

// values maps a metric name to its value.
type values map[string]float64

// counters holds cumulative layer counters by an internal key; a phase
// is described by the difference of two readings.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counters) minus(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// share is part/(part+rest), 0 when nothing was counted.
func share(part, rest float64) float64 {
	if part+rest == 0 {
		return 0
	}
	return part / (part + rest)
}

// runtimeCounters reads one library context's scheduler, device and
// interconnect counters through Stats() and Core().
func runtimeCounters(ctx *gptpu.Context) counters {
	st := ctx.Stats()
	c := counters{
		"res_hits":   float64(st.ResidencyHits),
		"res_misses": float64(st.ResidencyMisses),
		"evictions":  float64(st.Evictions),
		"aff_hits":   float64(st.AffinityHits),
		"fcfs":       float64(st.FCFSFallbacks),
		"q_hits":     float64(st.QuantCacheHits),
		"q_misses":   float64(st.QuantCacheMisses),
		"retries":    float64(st.TransientRetries + st.DeviceLostRetries),
	}
	for _, d := range st.PerDevice {
		c["execs"] += float64(d.Execs)
		c["h2d_bytes"] += float64(d.UploadBytes)
		c["d2h_bytes"] += float64(d.DownloadBytes)
	}
	pool := ctx.Core().Pool
	for _, d := range pool.Devices {
		c["compute_busy_s"] += d.ComputeBusy().Seconds()
		c["link_busy_s"] += pool.IC.LinkBusy(d.ID).Seconds()
	}
	c["device_s"] = float64(len(pool.Devices)) * ctx.Elapsed().Seconds()
	return c
}

// poolCounters reads the process-wide intra-op kernel pool.
func poolCounters() counters {
	s := edgetpu.KernelPoolSnapshot()
	return counters{"pool_jobs": float64(s.Jobs), "pool_serial": float64(s.SerialFallbacks)}
}

// familyTotals sums every sample of each counter or gauge family of a
// registry snapshot.
func familyTotals(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Samples {
			out[fam.Name] += s.Value
		}
	}
	return out
}

// serverCounters reads one daemon's serving counters.
func serverCounters(srv *server.Server) counters {
	t := familyTotals(srv.Metrics())
	return counters{
		"requests":     t["gptpu_serve_requests_total"],
		"batches":      t["gptpu_serve_batches_total"],
		"batched_reqs": t["gptpu_serve_batched_requests_total"],
		"weight_hits":  t["gptpu_serve_weight_cache_hits_total"],
		"shed":         t["gptpu_serve_shed_total"],
	}
}

// Failure classes. The check_ classes mean the program returned a
// wrong answer; the rest mean it returned none.
const (
	failChecksum  = "check_checksum"  // a repeated input did not repeat its result bits
	failIdentical = "check_identical" // a NoBatch reply differs from the library result
	failTolerance = "check_tolerance" // MAPE against the float32 reference above the limit
	failDrop      = "generator_drop"  // the generator's outstanding cap was reached
)

// errClass names a call error by its typed class, so failures are
// counted, never panicked on.
func errClass(err error) string {
	switch {
	case errors.Is(err, server.ErrOverloaded):
		return "shed"
	case errors.Is(err, server.ErrDeadlineExceeded),
		errors.Is(err, server.ErrBadRequest),
		errors.Is(err, server.ErrShuttingDown),
		errors.Is(err, server.ErrVersionMismatch),
		errors.Is(err, server.ErrTransient),
		errors.Is(err, server.ErrInternal):
		return server.ErrStatus(err)
	case errors.Is(err, gptpu.ErrBadInput), errors.Is(err, gptpu.ErrRetryBudget),
		errors.Is(err, gptpu.ErrNoDevices), errors.Is(err, gptpu.ErrClosed):
		return "runtime"
	}
	return "conn"
}

// daemon is one in-process gptpu-serve on loopback TCP.
type daemon struct {
	srv  *server.Server
	done chan struct{}
}

func bootDaemon(cfg server.Config) (*daemon, error) {
	d := &daemon{srv: server.New(cfg), done: make(chan struct{})}
	if err := d.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	go func() { defer close(d.done); _ = d.srv.Serve() }()
	return d, nil
}

// stop drains the daemon and waits for its accept loop to end.
func (d *daemon) stop() {
	_ = d.srv.Shutdown() // a drain error means a request failed, which the phase already counted
	<-d.done
}

// dialN opens n multiplexed client connections to addr.
func dialN(addr string, n int) ([]*server.Client, error) {
	clis := make([]*server.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			closeAll(clis)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clis = append(clis, c)
	}
	return clis, nil
}

func closeAll(clis []*server.Client) {
	for _, c := range clis {
		_ = c.Close() // closing an already-failed connection reports the same failure again
	}
}
