// Package fault is the simulator's deterministic fault-injection
// layer. The paper's runtime claims that on an Edge TPU failure "the
// GPTPU runtime system can then dispatch the task to another available
// Edge TPU" (section 6); this package supplies the failures that make
// that path real: probabilistic transient execution faults, permanent
// device loss at configured virtual times, device revival (recovery
// through quarantine-and-probe), and PCIe link degradation.
//
// Determinism: every random draw comes from one seeded PRNG that is
// consumed exclusively from the dispatch engine's charge phase, which
// serializes instructions in enqueue order regardless of worker count.
// Time-triggered events fire against the virtual clock, not the wall
// clock. Two runs with the same seed, fault plan and instruction
// stream therefore inject byte-identical fault sequences and produce
// bit-identical virtual makespans.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/timing"
)

// Event schedules one permanent device state change: the device is
// killed (or revived) the first time the virtual clock reaches At.
type Event struct {
	Device int
	At     timing.Duration
}

// Config is one run's fault plan. The zero value injects nothing.
type Config struct {
	// Seed seeds the transient-fault PRNG (0 is a valid seed).
	Seed int64
	// TransientProb is the probability, per executed instruction
	// batch, of an injected transient execution fault (the device
	// charges the work but the result is lost and must be retried).
	TransientProb float64
	// Kill permanently fails devices at virtual times.
	Kill []Event
	// Revive returns previously-failed devices to service at virtual
	// times; a revived device re-enters the pool cold, through
	// quarantine and a probe self-test.
	Revive []Event
	// LinkScale multiplies the PCIe transfer latency of individual
	// device links (device index -> multiplier > 0); absent devices
	// run at nominal speed.
	LinkScale map[int]float64
}

// empty reports whether the plan injects nothing at all.
func (c *Config) empty() bool {
	return c == nil || (c.TransientProb <= 0 && len(c.Kill) == 0 &&
		len(c.Revive) == 0 && len(c.LinkScale) == 0)
}

// Injector is the runtime fault source built from a Config. A nil
// *Injector is valid and injects nothing, so fault-free builds carry
// no branches beyond one nil check. All methods are safe for
// concurrent use, but determinism is only guaranteed when ExecTransient
// is called from a serialized phase (the engine's charge order).
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	prob   float64
	kill   map[int]timing.Duration
	revive map[int]timing.Duration
	link   map[int]float64
}

// New builds an injector for cfg; a nil or empty plan yields a nil
// injector.
func New(cfg *Config) *Injector {
	if cfg.empty() {
		return nil
	}
	inj := &Injector{
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		prob:   cfg.TransientProb,
		kill:   make(map[int]timing.Duration),
		revive: make(map[int]timing.Duration),
		link:   make(map[int]float64),
	}
	for _, e := range cfg.Kill {
		inj.kill[e.Device] = e.At
	}
	for _, e := range cfg.Revive {
		inj.revive[e.Device] = e.At
	}
	for dev, s := range cfg.LinkScale {
		if s > 0 {
			inj.link[dev] = s
		}
	}
	return inj
}

// ExecTransient draws whether the next instruction execution suffers a
// transient fault. One PRNG draw per call; call only from the charge
// phase to keep runs reproducible.
func (i *Injector) ExecTransient() bool {
	if i == nil || i.prob <= 0 {
		return false
	}
	i.mu.Lock()
	hit := i.rng.Float64() < i.prob
	i.mu.Unlock()
	return hit
}

// KillDue reports — exactly once — that device dev's scheduled
// permanent failure time has been reached.
func (i *Injector) KillDue(dev int, now timing.Duration) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	at, ok := i.kill[dev]
	if !ok || now < at {
		return false
	}
	delete(i.kill, dev)
	return true
}

// ReviveDue reports — exactly once — that device dev's scheduled
// revival time has been reached.
func (i *Injector) ReviveDue(dev int, now timing.Duration) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	at, ok := i.revive[dev]
	if !ok || now < at {
		return false
	}
	delete(i.revive, dev)
	return true
}

// LinkScale returns the PCIe latency multiplier for device dev's link
// (1 when undegraded or when the injector is nil).
func (i *Injector) LinkScale(dev int) float64 {
	if i == nil {
		return 1
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if s, ok := i.link[dev]; ok {
		return s
	}
	return 1
}

// parseEvents parses a device-loss/revival flag spec: a comma-separated
// list of dev@duration entries, e.g. "1@5ms,3@1s" (durations are
// virtual times in Go duration syntax).
func parseEvents(spec string) ([]Event, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Event
	for _, part := range strings.Split(spec, ",") {
		dev, rest, err := splitEntry(part)
		if err != nil {
			return nil, err
		}
		at, err := time.ParseDuration(rest)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("fault: bad virtual time %q in %q", rest, part)
		}
		out = append(out, Event{Device: dev, At: at})
	}
	return out, nil
}

// parseScales parses a link-degradation flag spec: a comma-separated
// list of dev@multiplier entries, e.g. "0@2.5,2@1.5".
func parseScales(spec string) (map[int]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[int]float64)
	for _, part := range strings.Split(spec, ",") {
		dev, rest, err := splitEntry(part)
		if err != nil {
			return nil, err
		}
		s, err := strconv.ParseFloat(rest, 64)
		if err != nil || s <= 0 {
			return nil, fmt.Errorf("fault: bad link multiplier %q in %q", rest, part)
		}
		out[dev] = s
	}
	return out, nil
}

// splitEntry splits one "dev@value" flag entry.
func splitEntry(part string) (dev int, value string, err error) {
	part = strings.TrimSpace(part)
	at := strings.IndexByte(part, '@')
	if at < 0 {
		return 0, "", fmt.Errorf("fault: entry %q is not dev@value", part)
	}
	dev, err = strconv.Atoi(part[:at])
	if err != nil || dev < 0 {
		return 0, "", fmt.Errorf("fault: bad device index %q in %q", part[:at], part)
	}
	return dev, part[at+1:], nil
}
