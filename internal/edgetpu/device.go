package edgetpu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/pcie"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// ErrDeviceLost is returned once a device has been failed via Fail;
// the runtime reroutes queued instructions to healthy devices. This
// exercises the multi-TPU scheduler's fault path, which the physical
// testbed exhibits when a module drops off the PCIe bus.
var ErrDeviceLost = errors.New("edgetpu: device lost")

// ErrTransient is returned when an instruction execution suffers an
// injected transient fault: the matrix unit was occupied for the full
// execution time but the result is lost, so the runtime must retry
// (with backoff) rather than reroute — the device itself is still
// healthy.
var ErrTransient = errors.New("edgetpu: transient execution fault")

// errModelTooLarge is returned when a single upload exceeds the 8 MB
// on-chip memory; the Tensorizer must partition harder.
var errModelTooLarge = errors.New("edgetpu: model exceeds on-chip memory")

// Device is one simulated Edge TPU: a compute unit (the matrix unit
// plus activation pipeline, serially occupied per instruction), a PCIe
// link (owned by the Interconnect), and 8 MB of on-chip data memory
// with LRU residency. Residency is what makes the section 6.1
// scheduling rule profitable: instructions that share an input on the
// same device skip the transfer.
type Device struct {
	ID int

	params *timing.Params
	ic     *pcie.Interconnect
	comp   *timing.Resource

	// met holds the device's statistics; the telemetry registry owns
	// the counters, making every accessor a view over the registry.
	met *deviceMetrics

	// inj is the pool's fault injector (nil = no injected faults).
	inj *fault.Injector

	mu          sync.Mutex
	failed      bool
	quarantined bool // revived but not yet probed back into service
	memUsed     int64
	resident    map[uint64]*residentEntry
	lru         residentEntry  // ring sentinel: lru.next is the most recently used
	spare       *residentEntry // evicted entries chained by next, reused by uploads
}

// residentEntry is one on-chip input, linked into its device's LRU
// ring.
type residentEntry struct {
	key        uint64
	bytes      int64
	prev, next *residentEntry
}

// unlink removes e from the ring it is on.
func (e *residentEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFrontLocked links e in as the most recently used entry; d.mu
// must be held.
func (d *Device) pushFrontLocked(e *residentEntry) {
	e.prev, e.next = &d.lru, d.lru.next
	d.lru.next.prev = e
	d.lru.next = e
}

// newDevice builds device id on the shared timeline and interconnect,
// recording its statistics into reg (nil = a private registry).
func newDevice(id int, tl *timing.Timeline, ic *pcie.Interconnect, params *timing.Params, reg *telemetry.Registry) *Device {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	d := &Device{
		ID:     id,
		params: params,
		ic:     ic,
		comp:   tl.NewResource(fmt.Sprintf("edgetpu%d", id)),
		met:    newDeviceMetrics(reg, id),
	}
	d.clearMemLocked()
	return d
}

// Fail marks the device lost; subsequent calls return ErrDeviceLost.
// On-chip memory is cleared: a dead device holds nothing, so the
// residency accessors and gauges must stop reporting its old contents
// (and a later Revive restarts genuinely cold).
func (d *Device) Fail() {
	d.mu.Lock()
	d.failed = true
	d.quarantined = false
	d.clearMemLocked()
	d.mu.Unlock()
	d.met.lost.Set(1)
	d.met.quarantined.Set(0)
}

// revive returns a previously-failed device toward service. It does
// not make the device Healthy directly: the device enters quarantine
// with cold on-chip memory, and the pool must Probe it (charging the
// recovery self-test in virtual time) before instructions may land.
// Reviving a device that never failed is a no-op.
func (d *Device) revive() {
	d.mu.Lock()
	if !d.failed {
		d.mu.Unlock()
		return
	}
	d.failed = false
	d.quarantined = true
	d.clearMemLocked()
	d.mu.Unlock()
	d.met.revives.Inc()
	d.met.lost.Set(0)
	d.met.quarantined.Set(1)
}

// probeCost is the virtual time of the recovery self-test a revived
// device runs before re-entering service.
const probeCost = 100 * time.Microsecond

// probe runs the recovery self-test on a quarantined device: it
// charges probeCost on the device's compute unit starting at now and
// promotes the device to Healthy. Probing a non-quarantined device is
// a no-op.
func (d *Device) probe(now timing.Duration) {
	d.mu.Lock()
	if !d.quarantined {
		d.mu.Unlock()
		return
	}
	d.quarantined = false
	d.mu.Unlock()
	d.comp.AcquireSpan(now, probeCost, timing.Span{Phase: "probe"})
	d.met.probes.Inc()
	d.met.quarantined.Set(0)
}

// isQuarantined reports whether the device is revived but not yet
// probed back into service.
func (d *Device) isQuarantined() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

// clearMemLocked drops all on-chip residency state; d.mu must be held.
func (d *Device) clearMemLocked() {
	d.memUsed = 0
	d.resident = make(map[uint64]*residentEntry)
	d.lru.prev, d.lru.next = &d.lru, &d.lru
}

// ResetState clears the device's on-chip memory: residency entries
// and occupancy go back to the cold state a Context.Reset implies.
// Failure status and cumulative statistics survive — a lost device
// stays lost across resets, and counters are monotonic by contract.
func (d *Device) ResetState() {
	d.mu.Lock()
	d.clearMemLocked()
	d.mu.Unlock()
}

// Healthy reports whether the device is usable: not failed and not
// sitting in post-revival quarantine.
func (d *Device) Healthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.failed && !d.quarantined
}

// Execs returns the number of instructions executed, for scheduler
// tests and utilization reports.
func (d *Device) Execs() int64 { return int64(d.met.execs.Value()) }

// IOStats reports the device's interconnect traffic: byte totals in
// each direction.
func (d *Device) IOStats() (uploadBytes, downloadBytes int64) {
	return int64(d.met.uploadBytes.Value()), int64(d.met.downloadBytes.Value())
}

// Resident reports whether the input identified by key currently
// occupies on-chip memory.
func (d *Device) Resident(key uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.resident[key]
	return ok
}

// ComputeBusy returns the total matrix-unit busy time (for energy).
func (d *Device) ComputeBusy() timing.Duration { return d.comp.BusyTime() }

// ResidencyStats reports how the 8 MB on-chip memory behaved: uploads
// satisfied from residency (no transfer), uploads that crossed the
// interconnect, and LRU evictions. The section 6.1 scheduling rule
// exists to maximize the hit column.
func (d *Device) ResidencyStats() (hits, misses, evictions int64) {
	return int64(d.met.hits.Value()), int64(d.met.misses.Value()), int64(d.met.evictions.Value())
}

// Compute exposes the matrix-unit resource for scheduler queries.
func (d *Device) Compute() *timing.Resource { return d.comp }

// Upload ensures the input identified by key (bytes long) is resident
// on-chip, transferring it over the device's PCIe link if needed, and
// returns the time at which it is available. Zero-key inputs (pure
// host constants) are free.
func (d *Device) Upload(key uint64, bytes int64, ready timing.Duration) (timing.Duration, error) {
	return d.UploadSpan(key, bytes, ready, timing.Span{Phase: "upload"})
}

// UploadSpan is Upload with task-lifecycle annotation: sp tags the
// link occupancy with the operator and task that requested the input.
func (d *Device) UploadSpan(key uint64, bytes int64, ready timing.Duration, sp timing.Span) (timing.Duration, error) {
	d.mu.Lock()
	if d.failed || d.quarantined {
		d.mu.Unlock()
		return ready, ErrDeviceLost
	}
	if bytes > d.params.TPUMemBytes {
		d.mu.Unlock()
		return ready, fmt.Errorf("%w: %d bytes > %d", errModelTooLarge, bytes, d.params.TPUMemBytes)
	}
	if e, ok := d.resident[key]; ok {
		e.unlink()
		d.pushFrontLocked(e)
		d.mu.Unlock()
		d.met.hits.Inc()
		return ready, nil // residency hit: no transfer
	}
	// Evict least-recently-used entries until the new input fits; their
	// entries are recycled for this and later uploads.
	var evicted int
	for d.memUsed+bytes > d.params.TPUMemBytes {
		victim := d.lru.prev
		d.memUsed -= victim.bytes
		delete(d.resident, victim.key)
		victim.unlink()
		victim.next, d.spare = d.spare, victim
		evicted++
	}
	e := d.spare
	if e != nil {
		d.spare = e.next
	} else {
		e = new(residentEntry)
	}
	e.key, e.bytes = key, bytes
	d.pushFrontLocked(e)
	d.resident[key] = e
	d.memUsed += bytes
	d.mu.Unlock()
	d.met.misses.Inc()
	d.met.evictions.Add(uint64(evicted))
	d.met.uploadBytes.Add(uint64(bytes))
	sp.Phase = "upload"
	return d.ic.TransferSpan(d.ID, bytes, ready, sp), nil
}

// Exec charges the device for one instruction ready at the given time
// and returns its completion time. The caller performs the functional
// computation with the ops in this package; Exec accounts only time.
func (d *Device) Exec(in *isa.Instruction, ready timing.Duration) (timing.Duration, error) {
	return d.ExecN(in, 1, ready)
}

// ExecN charges the device for n identical back-to-back instructions
// (the Tensorizer issues homogeneous instruction batches; charging
// them in one acquisition is equivalent to n serial acquisitions).
func (d *Device) ExecN(in *isa.Instruction, n int, ready timing.Duration) (timing.Duration, error) {
	if n <= 0 {
		return ready, nil
	}
	d.mu.Lock()
	if d.failed || d.quarantined {
		d.mu.Unlock()
		return ready, ErrDeviceLost
	}
	d.mu.Unlock()
	dur := time.Duration(n) * d.params.InstrTime(in)
	if d.inj.ExecTransient() {
		// Injected transient fault: the matrix unit was occupied for
		// the full batch but the result is lost. Charging the wasted
		// time before returning makes the retry queue behind it, the
		// way a real re-execution would.
		d.comp.AcquireSpan(ready, dur,
			timing.Span{Phase: "exec-fault", Op: in.Op.String(), Task: in.TaskID})
		d.met.transients.Inc()
		return ready, ErrTransient
	}
	_, end := d.comp.AcquireSpan(ready, dur,
		timing.Span{Phase: "exec", Op: in.Op.String(), Task: in.TaskID})
	d.met.execs.Add(uint64(n))
	return end, nil
}

// DownloadSpan transfers result bytes back to the host and returns
// the completion time; sp annotates the task-lifecycle trace span.
func (d *Device) DownloadSpan(bytes int64, ready timing.Duration, sp timing.Span) (timing.Duration, error) {
	d.mu.Lock()
	if d.failed || d.quarantined {
		d.mu.Unlock()
		return ready, ErrDeviceLost
	}
	d.mu.Unlock()
	if bytes > 0 {
		d.met.downloadBytes.Add(uint64(bytes))
	}
	sp.Phase = "download"
	return d.ic.TransferSpan(d.ID, bytes, ready, sp), nil
}

// Pool is the set of Edge TPUs attached to one simulated machine (the
// prototype hosts up to 8, paper section 3.1).
type Pool struct {
	Devices []*Device
	IC      *pcie.Interconnect

	inj *fault.Injector
}

// NewPool builds n devices on a shared timeline and interconnect,
// recording device statistics into reg (nil = a private registry).
func NewPool(tl *timing.Timeline, params *timing.Params, n int, reg *telemetry.Registry) *Pool {
	return NewPoolInjected(tl, params, n, reg, nil)
}

// NewPoolInjected is NewPool with a fault injector driving transient
// exec faults, time-scheduled device loss and revival, and PCIe link
// degradation (nil = no injected faults).
func NewPoolInjected(tl *timing.Timeline, params *timing.Params, n int, reg *telemetry.Registry, inj *fault.Injector) *Pool {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ic := pcie.NewInjected(tl, params, n, inj)
	p := &Pool{IC: ic, inj: inj}
	for i := 0; i < n; i++ {
		d := newDevice(i, tl, ic, params, reg)
		d.inj = inj
		p.Devices = append(p.Devices, d)
	}
	return p
}

// Tick applies the injector's time-scheduled events that have come due
// at virtual time now — permanent kills, revivals — and probes any
// quarantined device back into service. The dispatch engine calls it
// at the top of every charge, so events fire at deterministic points
// of the instruction stream.
func (p *Pool) Tick(now timing.Duration) {
	for _, d := range p.Devices {
		if p.inj.KillDue(d.ID, now) {
			d.Fail()
			d.met.kills.Inc()
		}
		if p.inj.ReviveDue(d.ID, now) {
			d.revive()
		}
		if d.isQuarantined() {
			d.probe(now)
		}
	}
}

// AppendHealthy appends the usable devices to dst and returns the
// extended slice; the dispatch engine passes a stack array, so its
// every placement attempt is allocation-free.
func (p *Pool) AppendHealthy(dst []*Device) []*Device {
	for _, d := range p.Devices {
		if d.Healthy() {
			dst = append(dst, d)
		}
	}
	return dst
}
