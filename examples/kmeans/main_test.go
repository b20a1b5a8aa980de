package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// k-means: 4096 points, 64 dims, 16 clusters, 12 rounds on 2 Edge TPUs
	//   cluster purity: 100.0% (int8 cross-terms, exact host epilogue)
	//   virtual time: 7.587075ms, energy 0.32 J
}
