package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// Black-Scholes: 65536 European calls priced
	//   CPU (exact erf):       26.2144ms
	//   GPTPU (poly via FC):   24.668798ms on 2 Edge TPUs
	//   price RMSE: 0.1677%   worst relative error: 24.8852%
	//   sample: S=121.65 K=124.27 T=0.61 -> exact 8.9980, GPTPU 8.9401
}
