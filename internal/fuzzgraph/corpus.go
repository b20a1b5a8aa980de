package fuzzgraph

// CorpusSeeds replays one committed seed per divergence the fuzzer
// has caught and we have fixed. TestCorpusReplay runs every entry on
// each CI pass, so a fixed bug that comes back fails immediately with
// a minimized repro.
var CorpusSeeds = []int64{
	// Reduce nodes (core/graph.go) published a real 1x1 zero matrix in
	// timing-only mode instead of a shape descriptor.
	// Caught by the timing-only leg ("n6 published real data (1x1)");
	// seed 5 minimizes to mul -> max, seed 14 has the reduce at n0.
	5, 10, 14,
}
