package fault

import (
	"flag"
	"fmt"
)

// Flags is the -fault-* flag bundle shared by gptpu-run, gptpu-bench
// and gptpu-serve, so every binary spells the fault plan identically.
type Flags struct {
	Seed      int64
	Transient float64
	Kill      string
	Revive    string
	Link      string
}

// Register installs the -fault-* flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.Int64Var(&f.Seed, "fault-seed", 1,
		"fault-injection PRNG seed (same seed + same workload = identical faults)")
	fs.Float64Var(&f.Transient, "fault-transient", 0,
		"probability per instruction batch of an injected transient exec fault")
	fs.StringVar(&f.Kill, "fault-kill", "",
		"permanently fail devices at virtual times, e.g. '1@5ms,3@1s'")
	fs.StringVar(&f.Revive, "fault-revive", "",
		"revive failed devices at virtual times (quarantine-and-probe re-entry), e.g. '1@20ms'")
	fs.StringVar(&f.Link, "fault-link", "",
		"degrade device PCIe links by a latency multiplier, e.g. '0@2.5'")
}

// Config materializes the parsed flags into a fault plan, or nil when
// no fault flag was used.
func (f *Flags) Config() (*Config, error) {
	kill, err := parseEvents(f.Kill)
	if err != nil {
		return nil, err
	}
	revive, err := parseEvents(f.Revive)
	if err != nil {
		return nil, err
	}
	link, err := parseScales(f.Link)
	if err != nil {
		return nil, err
	}
	if f.Transient < 0 || f.Transient > 1 {
		return nil, fmt.Errorf("fault: transient probability %v outside [0,1]", f.Transient)
	}
	cfg := &Config{
		Seed:          f.Seed,
		TransientProb: f.Transient,
		Kill:          kill,
		Revive:        revive,
		LinkScale:     link,
	}
	if cfg.empty() {
		return nil, nil
	}
	return cfg, nil
}
