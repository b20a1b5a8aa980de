package main

// The program's whole output is pinned: results are bit-identical for
// every dispatch-worker count and the virtual clock repeats exactly,
// so a change to either precision path shows here.
func Example() {
	main()
	// Output:
	// conjugate gradient: 256x256 SPD system on 4 Edge TPUs
	//   int8 MatVec   iterations:  5   residual norm: 0.3403   worst component: 0.07102   virtual time: 480.456µs
	//   MatVecPrecise iterations:  5   residual norm: 0.0020   worst component: 0.00039   virtual time: 1.22662ms
}
