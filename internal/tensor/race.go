//go:build race

package tensor

// RaceEnabled reports whether this binary was built with the race
// detector. Under race, sync.Pool intentionally drops a fraction of
// Puts to shake out lifetime bugs, so pooled paths are no longer
// allocation-free; allocation and byte budgets on those paths skip
// themselves.
const RaceEnabled = true
