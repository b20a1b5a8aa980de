package fuzzgraph

// Failure is one divergence: the seed that produced it, the full
// generated case, the minimized repro, and the oracle's verdict.
type Failure struct {
	Seed      int64
	Case      *Case
	Minimized *Case
	Err       error
}

// checkSeed generates the case for one seed and runs the full
// differential matrix against it. On divergence it minimizes the case
// (with the same harness, so wire-leg failures minimize too) and
// returns the failure; nil means the seed passed.
func checkSeed(seed int64, h *Harness) *Failure {
	cs := generate(seed)
	err := check(cs, h)
	if err == nil {
		return nil
	}
	min := minimize(cs, func(c *Case) bool { return check(c, h) != nil })
	return &Failure{Seed: seed, Case: cs, Minimized: min, Err: err}
}

// Run fuzzes n consecutive seeds starting at start. The progress
// callback (may be nil) fires after every seed, with the failure if
// that seed diverged. Returns all failures.
func Run(start int64, n int, h *Harness, progress func(seed int64, f *Failure)) []*Failure {
	var fails []*Failure
	for i := 0; i < n; i++ {
		seed := start + int64(i)
		f := checkSeed(seed, h)
		if f != nil {
			fails = append(fails, f)
		}
		if progress != nil {
			progress(seed, f)
		}
	}
	return fails
}
