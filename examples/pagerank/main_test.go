package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// PageRank 2048 nodes, 15 iterations on 4 Edge TPUs — one graph Submit
	//   iteration 1 ends: 11.348338ms (quantize + ship the adjacency tiles)
	//   iteration 2 ends: 12.660801ms (tiles resident: locality rule, section 6.1)
	//   total: 29.72282ms
	//   top-5 ranked nodes (GPTPU vs CPU):
	//     node  1701  0.001120  (cpu 0.001117)
	//     node   732  0.001079  (cpu 0.001078)
	//     node   930  0.001063  (cpu 0.001062)
	//     node  1341  0.001062  (cpu 0.001064)
	//     node  1257  0.001022  (cpu 0.001021)
}
