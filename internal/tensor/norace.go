//go:build !race

package tensor

// RaceEnabled reports whether this binary was built with the race
// detector; see race.go.
const RaceEnabled = false
