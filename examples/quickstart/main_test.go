package main

// The program's whole output is pinned: the simulation is seeded and
// runs on the virtual clock, so any drift in results or timing shows
// here.
func Example() {
	main()
	// Output:
	// graph tanh(a@b + c), 512x512, one Submit
	//   nodes executed: 3, intermediates kept on-chip: 2
	//   device->host traffic: 262144 bytes (exactly the 262144-byte leaf)
	//   RMSE vs float CPU chain: 5.6585%
	//   virtual time on the simulated platform: 10.266768ms
	//   energy: 0.43 J total (0.02 J active, 0.41 J idle floor)
}
