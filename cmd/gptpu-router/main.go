// Command gptpu-router is the GPTPU cluster front door: it fronts N
// gptpu-serve daemons behind one address, sharding operator requests
// by weight-matrix content hash (rendezvous placement with weight
// affinity) and failing over down each key's replica order when a
// member sheds, drains, or dies.
//
// Usage:
//
//	gptpu-router -members 127.0.0.1:8477,127.0.0.1:8478
//	gptpu-router -addr :0 -members ... -metrics :9091
//
// The router speaks the gptpu-serve wire protocol on both sides, so
// existing clients (and `gptpu-serve -check` / `-soak`) point at the
// router unchanged. It prints one "listening on <addr>" line once
// bound, drains gracefully on SIGINT/SIGTERM, and dumps its flight
// recorder to stderr on SIGQUIT — the same process lifecycle as
// gptpu-serve (server.Process).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8470", "TCP listen address (use :0 for an ephemeral port)")
	members := flag.String("members", "", "comma-separated backend gptpu-serve addresses (required)")
	shard := flag.String("shard", "router", "identity reported in this router's own health replies")
	probeInterval := flag.Duration("probe-interval", time.Second, "member health-probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-member health-probe timeout")
	deadStrikes := flag.Int("dead-strikes", 2, "consecutive probe/forward failures before a member is ejected")
	affinityCap := flag.Int("affinity-cap", 4096, "weight-affinity table capacity (placement keys)")
	metricsAddr := flag.String("metrics", "", "serve the telemetry HTTP exporter on this address (e.g. :9091)")
	obsOn := flag.Bool("obs", true, "per-request routing traces and the flight recorder")
	flightN := flag.Int("flight", 256, "flight recorder capacity")
	flightDump := flag.String("flight-dump", "", "write the flight recorder as JSON to this file at exit")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	addrs := splitMembers(*members)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "gptpu-router: -members is required (comma-separated daemon addresses)")
		os.Exit(2)
	}

	logger := server.NewLogger(*logJSON)

	var rec *obs.Recorder
	if *obsOn {
		rec = obs.New(obs.Config{Capacity: *flightN})
	}

	rt := cluster.New(cluster.Config{
		Members:       addrs,
		ShardID:       *shard,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		DeadStrikes:   *deadStrikes,
		AffinityCap:   *affinityCap,
		Retry:         server.RetryPolicy{Max: 1, Base: 5 * time.Millisecond},
		Obs:           rec,
		Logger:        logger,
	})
	if err := rt.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-router:", err)
		os.Exit(1)
	}
	fmt.Printf("gptpu-router: listening on %s (%d member(s))\n", rt.Addr(), len(addrs))

	os.Exit(server.Process{
		Name:        "gptpu-router",
		Log:         logger,
		MetricsAddr: *metricsAddr,
		FlightDump:  *flightDump,
	}.Run(rt))
}

// splitMembers parses the -members list, dropping empty entries so a
// trailing comma is harmless.
func splitMembers(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
