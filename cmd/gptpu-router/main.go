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
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8470", "TCP listen address (use :0 for an ephemeral port)")
	members := flag.String("members", "", "comma-separated backend gptpu-serve addresses (required)")
	shard := flag.String("shard", "router", "identity reported in this router's own health replies")
	probeInterval := flag.Duration("probe-interval", time.Second, "member health-probe period")
	proc := server.NewProcess("gptpu-router", flag.CommandLine)
	flag.Parse()

	addrs := splitMembers(*members)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "gptpu-router: -members is required (comma-separated daemon addresses)")
		os.Exit(2)
	}

	logger, rec := proc.Start()
	rt := cluster.New(cluster.Config{
		Members:       addrs,
		ShardID:       *shard,
		ProbeInterval: *probeInterval,
		Obs:           rec,
		Logger:        logger,
	})
	if err := rt.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "gptpu-router:", err)
		os.Exit(1)
	}
	fmt.Printf("gptpu-router: listening on %s (%d member(s))\n", rt.Addr(), len(addrs))

	os.Exit(proc.Run(rt))
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
