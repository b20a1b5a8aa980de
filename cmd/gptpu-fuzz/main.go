// gptpu-fuzz is the differential op-graph fuzzer: it generates seeded
// random instruction DAGs and executes each one through three
// substrates — the optimized kernels, the frozen ops_ref reference
// kernels, and one op at a time over the wire through a live daemon —
// at dispatch worker counts {1,4,8}, with and without a randomized
// fault plan, requiring bit-identical results and bit-identical
// virtual makespans everywhere.
//
//	gptpu-fuzz -seed 1 -cases 200      # CI slice: deterministic sweep
//	gptpu-fuzz -case 1337              # replay one repro seed
//	gptpu-fuzz -seed 1 -cases 4000 -v  # soak
//
// On divergence it prints the oracle's verdict, the full program
// listing, and a minimized repro, then exits 1. The repro is the seed:
// rerunning with -case <seed> replays it exactly.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fuzzgraph"
)

func main() {
	seed := flag.Int64("seed", 1, "first seed of the sweep")
	cases := flag.Int("cases", 200, "number of consecutive seeds to check")
	one := flag.Int64("case", 0, "replay a single seed and exit (overrides -seed/-cases)")
	verbose := flag.Bool("v", false, "print progress every 50 seeds")
	flag.Parse()

	h, err := fuzzgraph.NewHarness()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gptpu-fuzz: harness: %v\n", err)
		os.Exit(2)
	}
	defer h.Close()

	start, n := *seed, *cases
	if *one != 0 {
		start, n = *one, 1
	}

	var failed int
	progress := func(s int64, f *fuzzgraph.Failure) {
		if f != nil {
			failed++
			fmt.Printf("FAIL seed %d: %v\n\ncase:\n%s\nminimized:\n%s\n", f.Seed, f.Err, f.Case, f.Minimized)
			return
		}
		if *verbose && (s-start+1)%50 == 0 {
			fmt.Printf("%d/%d seeds ok\n", s-start+1, n)
		}
	}
	fuzzgraph.Run(start, n, h, progress)

	if failed > 0 {
		fmt.Printf("gptpu-fuzz: %d/%d seeds diverged\n", failed, n)
		os.Exit(1)
	}
	fmt.Printf("gptpu-fuzz: %d seeds, 3-way oracle clean (workers 1/4/8, fault plans, wire)\n", n)
}
