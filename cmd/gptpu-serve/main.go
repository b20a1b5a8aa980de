// Command gptpu-serve is the GPTPU serving daemon: it shares one
// simulated multi-TPU runtime context across any number of network
// clients, speaking the internal/server wire protocol.
//
// Usage:
//
//	gptpu-serve                          # serve on :8477, 1 device
//	gptpu-serve -addr :0 -devices 8      # ephemeral port, 8 TPUs
//	gptpu-serve -metrics :9090           # mount the HTTP metrics exporter
//	gptpu-serve -metrics :9090 -pprof    # ... plus net/http/pprof
//	gptpu-serve -check 127.0.0.1:8477    # client mode: GEMM round trip
//	gptpu-serve -soak 127.0.0.1:8477     # client mode: traffic generator
//
// The daemon prints one "listening on <addr>" line once the socket is
// bound (scripts parse it to discover ephemeral ports) and drains
// gracefully on SIGINT/SIGTERM: in-flight requests finish, new ones
// are refused with a shutting-down reply, then the runtime retires.
//
// Observability: per-request tracing is on by default (-obs=false
// disables it). The flight recorder keeps the last -flight completed
// request waterfalls plus snapshots of in-flight requests taken at
// fault and drain moments; SIGQUIT dumps it to stderr without
// stopping the daemon, -flight-dump writes it to a file at exit, and
// /debug/flight serves it from the metrics listener. -trace merges
// per-request wall-clock lanes with the runtime's virtual-time device
// timelines into one Chrome trace at exit.
//
// -check connects as a client, round-trips a small GEMM, verifies the
// result against a CPU reference, and exits 0/1 — the probe
// `make serve-smoke` (and any external health checker) uses.
//
// -soak connects -soak-clients concurrent clients that each issue
// -soak-reqs small GEMMs and reports throughput; `make obs-smoke`
// uses it to exercise the serving path under chaos.
//
// -flight-verify parses a flight-dump JSON file, checks its internal
// consistency (every span closed or marked in-flight, well-formed
// trace IDs), and with -expect-fault additionally requires at least
// one request whose latency is attributed to a fault-triggered retry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/internal/timing"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8477", "TCP listen address (use :0 for an ephemeral port)")
	devices := flag.Int("devices", 1, "simulated Edge TPUs behind the daemon (1-8)")
	maxInFlight := flag.Int("max-inflight", 64, "admission bound: requests beyond this are shed with an overloaded reply")
	proc := server.NewProcess("gptpu-serve", flag.CommandLine)
	flag.BoolVar(&proc.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics listener")
	check := flag.String("check", "", "client mode: round-trip a GEMM against the daemon at this address and exit")
	retryBudget := flag.Int("retry-budget", 0, "runtime dispatch retries per instruction under faults (0 = default 8)")
	tracePath := flag.String("trace", "", "write a merged Chrome trace (device timelines + request lanes) to this file at exit")
	soak := flag.String("soak", "", "client mode: drive GEMM traffic against the daemon at this address and exit")
	soakClients := flag.Int("soak-clients", 4, "concurrent clients in -soak mode")
	soakReqs := flag.Int("soak-reqs", 200, "requests per client in -soak mode")
	soakMixed := flag.Bool("soak-mixed", false, "with -soak: mix elementwise and reduction ops in with the GEMMs")
	shard := flag.String("shard", "", "shard identity reported in health-probe replies (cluster membership label)")
	flightVerify := flag.String("flight-verify", "", "verify a flight-dump JSON file for internal consistency and exit")
	expectFault := flag.Bool("expect-fault", false, "with -flight-verify: require at least one fault-attributed request")
	var ff fault.Flags
	ff.Register(flag.CommandLine)
	flag.Parse()

	if *flightVerify != "" {
		os.Exit(runFlightVerify(*flightVerify, *expectFault))
	}
	if *check != "" {
		os.Exit(runCheck(*check))
	}
	if *soak != "" {
		os.Exit(runSoak(*soak, *soakClients, *soakReqs, *soakMixed))
	}

	fc, err := ff.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve:", err)
		os.Exit(2)
	}

	logger, rec := proc.Start()
	srv := server.New(server.Config{
		Devices:     *devices,
		MaxInFlight: *maxInFlight,
		Fault:       fc,
		RetryBudget: *retryBudget,
		Obs:         rec,
		Logger:      logger,
		ShardID:     *shard,
	})
	// -trace records the daemon's one runtime timeline from the first
	// request on.
	tl := srv.Runtime().TL
	if *tracePath != "" {
		tl.EnableTrace()
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve:", err)
		os.Exit(1)
	}
	fmt.Printf("gptpu-serve: listening on %s (%d device(s), max-inflight %d)\n",
		srv.Addr(), srv.Runtime().Config().Devices, *maxInFlight)

	exit := proc.Run(srv)
	if *tracePath != "" {
		if err := writeTrace(tl, rec, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "gptpu-serve: trace:", err)
			exit = 1
		} else {
			fmt.Printf("gptpu-serve: chrome trace written to %s\n", *tracePath)
		}
	}
	os.Exit(exit)
}

// writeTrace exports the runtime's virtual-time device timeline
// merged with the flight recorder's wall-clock request lanes as one
// Chrome trace-event file.
func writeTrace(tl *timing.Timeline, rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The completed ring plus what is still in flight (a nil recorder
	// dumps neither).
	d := rec.Dump()
	n, err := trace.Write(f, []*timing.Timeline{tl}, append(d.Completed, d.InFlight...))
	if err != nil {
		f.Close()
		return err
	}
	fmt.Printf("gptpu-serve: %d trace events exported\n", n)
	return f.Close()
}

// runCheck is the -check client mode: one GEMM round trip verified
// against the CPU reference.
func runCheck(addr string) int {
	c, err := server.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve check:", err)
		return 1
	}
	defer c.Close()
	h, err := c.Health()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve check: ping:", err)
		return 1
	}
	state := "serving"
	if h.Draining {
		state = "draining"
	}
	id := h.ShardID
	if id == "" {
		id = "-"
	}
	fmt.Printf("gptpu-serve check: health: %s shard=%s devices=%d\n", state, id, h.Devices)
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandUniform(rng, 48, 48, -1, 1)
	b := tensor.RandUniform(rng, 48, 48, -1, 1)
	start := time.Now()
	got, err := c.Gemm(a, b, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve check: gemm:", err)
		return 1
	}
	if e := tensor.RMSE(blas.NaiveGemm(a, b), got); e > 0.05 {
		fmt.Fprintf(os.Stderr, "gptpu-serve check: gemm RMSE %v exceeds 0.05\n", e)
		return 1
	}
	fmt.Printf("gptpu-serve check: OK (48x48 GEMM round trip in %v)\n",
		time.Since(start).Round(time.Microsecond))
	return 0
}

// runSoak is the -soak client mode: clients concurrent connections
// each issue reqs small GEMMs (verified once per client against the
// CPU reference) and the aggregate throughput is reported. Typed
// errors are counted, not fatal — under chaos flags the daemon is
// expected to shed or fail some requests. With mixed, every fourth
// request alternates an elementwise Add or a Mean reduction into the
// stream, exercising the non-GEMM wire paths (and, through a router,
// the unary-operand placement rule).
func runSoak(addr string, clients, reqs int, mixed bool) int {
	if clients < 1 {
		clients = 1
	}
	if reqs < 1 {
		reqs = 1
	}
	var ok, failed atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := server.DialRetry(addr, server.RetryPolicy{Max: 3, Base: 10 * time.Millisecond})
			if err != nil {
				failed.Add(uint64(reqs))
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			a := tensor.RandUniform(rng, 32, 32, -1, 1)
			b := tensor.RandUniform(rng, 32, 32, -1, 1)
			want := blas.NaiveGemm(a, b)
			opts := &server.CallOpts{Deadline: 5 * time.Second}
			for i := 0; i < reqs; i++ {
				if mixed && i%4 == 3 {
					var err error
					if i%8 == 3 {
						_, err = c.Add(a, b, opts)
					} else {
						_, err = c.Mean(a, opts)
					}
					if err != nil {
						failed.Add(1)
					} else {
						ok.Add(1)
					}
					continue
				}
				got, err := c.Gemm(a, b, opts)
				if err != nil {
					failed.Add(1)
					continue
				}
				if i == 0 && tensor.RMSE(want, got) > 0.05 {
					failed.Add(1)
					continue
				}
				ok.Add(1)
			}
		}(ci)
	}
	wg.Wait()
	el := time.Since(start)
	total := ok.Load() + failed.Load()
	rps := float64(total) / el.Seconds()
	fmt.Printf("gptpu-serve soak: %d ok, %d failed in %v (%.0f req/s)\n",
		ok.Load(), failed.Load(), el.Round(time.Millisecond), rps)
	if ok.Load() == 0 {
		fmt.Fprintln(os.Stderr, "gptpu-serve soak: every request failed")
		return 1
	}
	return 0
}

// runFlightVerify parses and validates a flight-dump file; with
// expectFault it additionally requires at least one request whose
// waterfall carries a fault-attributed event (device_lost or
// transient_retry from the dispatch engine).
func runFlightVerify(path string, expectFault bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve flight-verify:", err)
		return 1
	}
	var d obs.FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve flight-verify: parse:", err)
		return 1
	}
	if err := obs.Validate(&d); err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-serve flight-verify:", err)
		return 1
	}
	faults := obs.FaultAttributed(&d)
	fmt.Printf("gptpu-serve flight-verify: OK (%d completed, %d in captures, %d fault-attributed)\n",
		len(d.Completed), len(d.Captures), faults)
	if expectFault && faults == 0 {
		fmt.Fprintln(os.Stderr, "gptpu-serve flight-verify: no fault-attributed request found")
		return 1
	}
	return 0
}
