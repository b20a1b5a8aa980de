//go:build race

package main

// raceEnabled: the race detector slows the program about tenfold, so
// the open-loop workloads cannot keep up with their fixed rates.
const raceEnabled = true
