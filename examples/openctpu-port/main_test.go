package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// Figure 3 port: 256x256 GEMM complete on the simulated Edge TPU
	//   C[0][0] = -21.679   C[255][255] = -20.456
	//   simulated platform time: 2.108456ms
}
