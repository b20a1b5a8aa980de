package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// relational queries over R(512 rows) and S(384 rows), key domain 256
	//   join count:     device 750, exact 750
	//   group-by-count: worst per-key deviation 0.000 (indicators are int8-exact)
	//   selection v>50: device 184 rows, exact 184
	//   virtual time: 61.9557ms, energy 2.62 J
}
