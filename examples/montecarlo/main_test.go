package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// Monte-Carlo pi with 1048576 samples on 2 Edge TPUs
	//   estimate: 3.13008 (error -0.01151)
	//   virtual time: 347.757481ms, energy 14.71 J
}
