package edgetpu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/timing"
)

func newFaultPool(n int, cfg *fault.Config) (*Pool, *timing.Timeline, *timing.Params) {
	tl := timing.NewTimeline()
	p := timing.Default()
	return NewPoolInjected(tl, p, n, nil, fault.New(cfg)), tl, p
}

// Regression: Fail used to leave memUsed, the residency map and the LRU
// list populated, so a dead device kept reporting its old contents.
func TestFailClearsOnChipMemory(t *testing.T) {
	pool, _, _ := newTestPool(1)
	d := pool.Devices[0]
	if _, err := d.Upload(1, 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	if d.occupied() == 0 || !d.Resident(1) {
		t.Fatal("setup: upload did not populate residency")
	}
	d.Fail()
	if d.occupied() != 0 {
		t.Fatalf("failed device reports %d bytes used", d.occupied())
	}
	if d.Resident(1) {
		t.Fatal("failed device reports stale residency")
	}
}

func TestReviveQuarantineProbeLifecycle(t *testing.T) {
	pool, _, _ := newTestPool(1)
	d := pool.Devices[0]
	if _, err := d.Upload(1, 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	busyBefore := d.ComputeBusy()

	d.Fail()
	d.revive()
	if d.Healthy() {
		t.Fatal("revived device must not be healthy before the probe")
	}
	if !d.isQuarantined() {
		t.Fatal("revived device must be quarantined")
	}
	// Quarantined devices refuse work exactly like failed ones.
	if _, err := d.Upload(2, 100, 0); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("quarantined upload err=%v", err)
	}
	if _, err := d.Exec(&isa.Instruction{Op: isa.Add, InRows: 1, InCols: 1}, 0); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("quarantined exec err=%v", err)
	}

	d.probe(time.Millisecond)
	if !d.Healthy() || d.isQuarantined() {
		t.Fatal("probe must promote the device to healthy")
	}
	// The probe self-test costs virtual compute time.
	if d.ComputeBusy() <= busyBefore {
		t.Fatal("probe charged no virtual time")
	}
	// Re-entry is cold: pre-failure residency is gone.
	if d.Resident(1) || d.occupied() != 0 {
		t.Fatal("revived device must re-enter cold")
	}
}

func TestReviveWithoutFailureIsNoop(t *testing.T) {
	pool, _, _ := newTestPool(1)
	d := pool.Devices[0]
	d.revive()
	if !d.Healthy() || d.isQuarantined() {
		t.Fatal("reviving a healthy device must change nothing")
	}
}

func TestPoolTickKillAndRevive(t *testing.T) {
	pool, _, _ := newFaultPool(2, &fault.Config{
		Kill:   []fault.Event{{Device: 0, At: 5 * time.Millisecond}},
		Revive: []fault.Event{{Device: 0, At: 10 * time.Millisecond}},
	})
	pool.Tick(0)
	if len(pool.AppendHealthy(nil)) != 2 {
		t.Fatal("no event is due at t=0")
	}
	pool.Tick(5 * time.Millisecond)
	if pool.Devices[0].Healthy() || len(pool.AppendHealthy(nil)) != 1 {
		t.Fatal("device 0 must be lost at its kill time")
	}
	// The revival tick revives and probes in one pass, so the device is
	// immediately usable again (the probe charged virtual time).
	pool.Tick(10 * time.Millisecond)
	if !pool.Devices[0].Healthy() {
		t.Fatal("device 0 must be back in service after its revive tick")
	}
	if pool.Devices[0].ComputeBusy() == 0 {
		t.Fatal("re-entry must have charged the probe self-test")
	}
}

func TestExecTransientChargesWastedTime(t *testing.T) {
	pool, _, params := newFaultPool(1, &fault.Config{Seed: 1, TransientProb: 1})
	d := pool.Devices[0]
	in := &isa.Instruction{Op: isa.Add, InRows: 128, InCols: 128}
	end, err := d.Exec(in, 0)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err=%v, want ErrTransient", err)
	}
	if end != 0 {
		t.Fatalf("transient exec returned end=%v, want the ready time back", end)
	}
	// The matrix unit was occupied for the full (wasted) execution.
	if d.ComputeBusy() != params.InstrTime(in) {
		t.Fatalf("busy=%v, want %v", d.ComputeBusy(), params.InstrTime(in))
	}
	// Transient faults never count as completed executions.
	if d.Execs() != 0 {
		t.Fatalf("execs=%d", d.Execs())
	}
}

func TestLinkDegradationSlowsTransfers(t *testing.T) {
	nominal, _, _ := newTestPool(1)
	degraded, _, _ := newFaultPool(1, &fault.Config{LinkScale: map[int]float64{0: 4}})
	e1, err := nominal.Devices[0].Upload(1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := degraded.Devices[0].Upload(1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("degraded link finished at %v, nominal at %v", e2, e1)
	}
}
