package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// HotSpot3D 4 layers of 256x256, 8 iterations
	//   CPU baseline:   26.2144ms
	//   GPTPU (1 TPU):  36.152026ms  (speedup 0.73x)
	//   temperature RMSE vs exact stencil: 2.419%
	//   PCIe busy 30.9ms vs matrix-unit busy 27.9ms: transfer-bound, as the paper observes
}
