package core

import (
	"errors"
	"fmt"

	"repro/internal/edgetpu"
	"repro/internal/isa"
	"repro/internal/timing"
)

// ErrNoDevices is returned when every Edge TPU in the pool has failed.
var ErrNoDevices = errors.New("core: no healthy Edge TPUs")

// inputRef identifies one device-side operand of an instruction: its
// identity for residency tracking and its on-wire size.
type inputRef struct {
	key   uint64
	bytes int64
	// ready is when this operand's host-side form exists; zero means
	// the instruction's own ready time. Operands quantized earlier
	// (e.g. a resident weight matrix) can prefetch over the link they
	// cross while the device still executes prior work.
	ready timing.Duration
	// chip marks the operand as a dataflow-graph intermediate living in
	// on-chip memory. An instruction landing on the device that holds
	// it skips the upload entirely; landing elsewhere (a segmented
	// chain, or after the holder died) ships the operand at its true
	// byte size.
	chip *chipResidency
}

// graphHome is the placement cell one graph chain (or chain segment)
// shares: the first pinned instruction charged sets it, every later
// instruction of the chain follows it, and pickDevice rebinds it when
// the home device leaves the pool. gen counts rebinds — intermediates
// produced under an older generation died with their device, so their
// consumers must re-ship them from the host shadow. Mutated only in
// pickDevice (under Context.mu) and read only from the serialized
// charge phase, so the engine lock orders every access.
type graphHome struct {
	id  int
	set bool
	gen int
}

// chipResidency records where one graph intermediate lives: its
// chain's home cell, the home generation it was produced under, and
// the virtual time it became available on-chip.
type chipResidency struct {
	home  *graphHome
	gen   int
	ready timing.Duration
}

// held reports whether the intermediate is still on device d: the home
// cell must name d and must not have rebound since production.
func (cr *chipResidency) held(d int) bool {
	return cr.home.set && cr.home.id == d && cr.home.gen == cr.gen
}

// instrWork is one IQ entry ready for dispatch: the instruction, its
// operands, the result size to download, and the closure that computes
// the functional result (nil in timing-only mode).
type instrWork struct {
	instr    isa.Instruction
	count    int // number of identical instructions (0 means 1)
	inputs   []inputRef
	outBytes int64
	ready    timing.Duration // earliest issue time (host data ready)
	fn       func()
	obs      TaskObserver // per-request observer, nil for unobserved tasks
	// places is the owning stream's or graph's affinity table (nil = no
	// placement memory).
	places *placements
	// home pins the instruction to its graph chain's device (nil = the
	// normal affinity/FCFS placement). rehomed is set by pickDevice
	// when the pinned device left the pool and the cell rebound: the
	// chain's on-chip intermediates died with the device, so tryOn
	// re-ships them from their host shadows at full size.
	home    *graphHome
	rehomed bool
}

func (w *instrWork) n() int {
	if w.count <= 0 {
		return 1
	}
	return w.count
}

// placements is the scheduler's placement memory for one task ID: the
// device each (primary input, quantization flags) key of the task went
// to. Its owner holds it — the Stream, or the Graph whose node streams
// share the task ID — so a stream nobody retires (NewOp) takes its
// table with it when it is collected, and a finished task or graph
// hands it to dropPlacements. Read and written only under Context.mu.
type placements struct {
	tab map[affinityKey]int // nil until the owner's first placement
	gen uint64              // Context.resets when tab was last used
}

// pickDevice implements the section 6.1 policy: an instruction whose
// (input, quantization flags, task ID) triple matches a previous
// assignment is sent to the same Edge TPU — "a scheduling approach
// that reduces movement overhead and the number of data
// transformations required". Other instructions are assigned
// first-come-first-serve to the earliest-available device. The task ID
// is implicit: w.places is the table of the instruction's own task.
func (c *Context) pickDevice(w *instrWork, healthy []*edgetpu.Device) *edgetpu.Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Graph chain pinning overrides the per-instruction policy: every
	// instruction of a chain (segment) lands on the chain's home device
	// so its on-chip intermediates are actually where the zero-cost
	// operand reads assume they are. The first pinned instruction
	// elects the home FCFS; if the home device later leaves the pool
	// the cell rebinds and the instruction is marked rehomed, making
	// tryOn re-upload the chain's intermediates from the host.
	if w.home != nil {
		if w.home.set {
			for _, d := range healthy {
				if d.ID == w.home.id {
					c.met.affinityHits.Inc()
					return d
				}
			}
			w.rehomed = true
			w.home.gen++
			c.met.affinityRebinds.Inc()
		} else {
			c.met.fcfsFallbacks.Inc()
		}
		best := c.fcfsLocked(healthy)
		w.home.id = best.ID
		w.home.set = true
		return best
	}
	// Affinity keys on the primary operand only (the large model/tile
	// input); keying on small shared operands like an iteration vector
	// would collapse every instruction onto one device.
	var k affinityKey
	p := w.places
	keyed := p != nil && !c.cfg.DisableLocality && len(w.inputs) > 0
	rebinding := false
	if keyed {
		if p.gen != c.resets {
			// Reset forgot every placement made before it.
			clear(p.tab)
			p.gen = c.resets
		}
		k = affinityKey{input: w.inputs[0].key, flags: w.instr.QuantFlags}
		if id, ok := p.tab[k]; ok {
			for _, d := range healthy {
				if d.ID == id {
					c.met.affinityHits.Inc()
					return d
				}
			}
			// The bound device left the pool (failed or quarantined):
			// this placement rebinds the key to the FCFS pick below.
			// Counting it as a plain FCFS fallback would hide every
			// post-failure placement behind the no-affinity metric
			// forever, so it gets its own counter.
			rebinding = true
		}
	}
	if rebinding {
		c.met.affinityRebinds.Inc()
	} else {
		c.met.fcfsFallbacks.Inc()
	}
	best := c.fcfsLocked(healthy)
	if keyed {
		if p.tab == nil {
			if n := len(c.freeTabs); n > 0 {
				p.tab = c.freeTabs[n-1]
				c.freeTabs = c.freeTabs[:n-1]
			} else {
				p.tab = make(map[affinityKey]int)
			}
		}
		p.tab[k] = best.ID
	}
	return best
}

// fcfsLocked picks the earliest-available compute unit, round-robin on
// ties; c.mu must be held.
func (c *Context) fcfsLocked(healthy []*edgetpu.Device) *edgetpu.Device {
	best := healthy[c.rr%len(healthy)]
	for i := 1; i < len(healthy); i++ {
		d := healthy[(c.rr+i)%len(healthy)]
		if d.Compute().AvailableAt() < best.Compute().AvailableAt() {
			best = d
		}
	}
	c.rr++
	return best
}

func (c *Context) tryOn(d *edgetpu.Device, w *instrWork) (timing.Duration, error) {
	sp := timing.Span{Op: w.instr.Op.String(), Task: w.instr.TaskID}
	at := w.ready
	for _, in := range w.inputs {
		ready := in.ready
		if ready == 0 {
			ready = w.ready
		}
		if in.chip != nil && !w.rehomed {
			if in.chip.held(d.ID) {
				// The operand is a graph intermediate already sitting in
				// this device's on-chip memory: no transfer, no host
				// round trip.
				continue
			}
			if in.chip.held(in.chip.home.id) {
				// Segment boundary: the intermediate lives on another
				// device of the chain. Ship it device→host→device —
				// download off the holder, then the upload below onto d.
				// Charged only when segmentation (or a racing fault)
				// actually splits a chain; a rebound home (stale
				// generation) has nothing to download, so the host shadow
				// re-uploads alone.
				if src := c.deviceByID(in.chip.home.id); src != nil && src.Healthy() && src.ID != d.ID && !d.Resident(in.key) {
					t, err := src.DownloadSpan(in.bytes, ready, sp)
					if err == nil && t > ready {
						ready = t
					}
				}
			}
		}
		t, err := d.UploadSpan(in.key, in.bytes, ready, sp)
		if err != nil {
			return 0, err
		}
		if t > at {
			at = t
		}
	}
	at, err := d.ExecN(&w.instr, w.n(), at)
	if err != nil {
		return 0, err
	}
	at, err = d.DownloadSpan(w.outBytes, at, sp)
	if err != nil {
		return 0, err
	}
	c.TL.Observe(at)
	return at, nil
}

// deviceByID returns the pool device with the given ID, or nil.
func (c *Context) deviceByID(id int) *edgetpu.Device {
	if id < 0 || id >= len(c.Pool.Devices) {
		return nil
	}
	return c.Pool.Devices[id]
}

// chargeHost charges d units of runtime-CPU work ready at the given
// time and returns its completion.
func (c *Context) chargeHost(ready, d timing.Duration) timing.Duration {
	_, end := c.Host.Acquire(ready, d)
	c.TL.Observe(end)
	return end
}

// checkShapes panics with a descriptive message when operand shapes
// disagree; operator front-ends use it for argument validation.
func checkShapes(op string, ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf("core: %s: %s", op, fmt.Sprintf(format, args...)))
	}
}
