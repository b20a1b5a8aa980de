package edgetpu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/timing"
)

func newTestPool(n int) (*Pool, *timing.Timeline, *timing.Params) {
	tl := timing.NewTimeline()
	p := timing.Default()
	return NewPool(tl, p, n, nil), tl, p
}

func TestUploadChargesTransferOnce(t *testing.T) {
	pool, _, _ := newTestPool(1)
	d := pool.Devices[0]
	end, err := d.Upload(1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 6*time.Millisecond {
		t.Fatalf("first upload ends at %v", end)
	}
	// Residency hit: no second transfer.
	end2, err := d.Upload(1, 1<<20, end)
	if err != nil {
		t.Fatal(err)
	}
	if end2 != end {
		t.Fatalf("resident upload must be free, got %v", end2)
	}
	if !d.Resident(1) {
		t.Fatal("input must be resident")
	}
}

func TestUploadEvictsLRU(t *testing.T) {
	pool, _, params := newTestPool(1)
	d := pool.Devices[0]
	half := params.TPUMemBytes / 2
	if _, err := d.Upload(1, half, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload(2, half, 0); err != nil {
		t.Fatal(err)
	}
	// Touch key 1 so key 2 becomes LRU.
	if _, err := d.Upload(1, half, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload(3, half, 0); err != nil {
		t.Fatal(err)
	}
	if d.Resident(2) {
		t.Fatal("key 2 should have been evicted (LRU)")
	}
	if !d.Resident(1) || !d.Resident(3) {
		t.Fatal("keys 1 and 3 should be resident")
	}
	if d.occupied() != params.TPUMemBytes {
		t.Fatalf("mem used %d", d.occupied())
	}
}

// occupied returns the device's occupied on-chip bytes.
func (d *Device) occupied() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memUsed
}

// ResetState must leave the device cold: no occupied bytes and no
// resident input, so later uploads neither hit stale entries nor evict
// for space a leaked occupancy still claims.
func TestResetStateClearsOnChipMemory(t *testing.T) {
	pool, _, params := newTestPool(1)
	d := pool.Devices[0]
	if _, err := d.Upload(1, 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	if d.occupied() == 0 || !d.Resident(1) {
		t.Fatal("setup: upload did not populate residency")
	}
	d.ResetState()
	if d.occupied() != 0 {
		t.Fatalf("reset device reports %d bytes used", d.occupied())
	}
	if d.Resident(1) {
		t.Fatal("reset device reports stale residency")
	}
	if _, err := d.Upload(2, params.TPUMemBytes, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, evictions := d.ResidencyStats(); evictions != 0 {
		t.Fatalf("a full-memory upload after ResetState evicted %d entries", evictions)
	}
}

func TestUploadTooLarge(t *testing.T) {
	pool, _, params := newTestPool(1)
	_, err := pool.Devices[0].Upload(1, params.TPUMemBytes+1, 0)
	if !errors.Is(err, errModelTooLarge) {
		t.Fatalf("err=%v", err)
	}
}

func TestExecChargesComputeSerially(t *testing.T) {
	pool, _, params := newTestPool(1)
	d := pool.Devices[0]
	in := &isa.Instruction{Op: isa.Add, InRows: 128, InCols: 128}
	dur := params.InstrTime(in)
	e1, err := d.Exec(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.Exec(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != dur || e2 != 2*dur {
		t.Fatalf("exec ends %v, %v; want %v, %v", e1, e2, dur, 2*dur)
	}
	if d.Execs() != 2 {
		t.Fatalf("execs=%d", d.Execs())
	}
	if d.ComputeBusy() != 2*dur {
		t.Fatalf("busy=%v", d.ComputeBusy())
	}
}

func TestFailedDeviceRefusesWork(t *testing.T) {
	pool, _, _ := newTestPool(2)
	d := pool.Devices[0]
	d.Fail()
	if d.Healthy() {
		t.Fatal("device should be unhealthy")
	}
	if _, err := d.Upload(1, 100, 0); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("upload err=%v", err)
	}
	if _, err := d.Exec(&isa.Instruction{Op: isa.Add, InRows: 1, InCols: 1}, 0); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("exec err=%v", err)
	}
	if _, err := d.DownloadSpan(100, 0, timing.Span{}); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("download err=%v", err)
	}
	if len(pool.AppendHealthy(nil)) != 1 {
		t.Fatalf("healthy=%d", len(pool.AppendHealthy(nil)))
	}
}

func TestPoolDevicesIndependent(t *testing.T) {
	pool, tl, params := newTestPool(8)
	in := &isa.Instruction{Op: isa.Conv2D, InRows: 128, InCols: 128, KRows: 3, KCols: 3, Channels: 1}
	for _, d := range pool.Devices {
		end, err := d.Exec(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		tl.Observe(end)
	}
	// All eight run concurrently: makespan equals one instruction.
	if tl.Makespan() != params.InstrTime(in) {
		t.Fatalf("makespan %v want %v", tl.Makespan(), params.InstrTime(in))
	}
}

func TestTable1RatesOnDevice(t *testing.T) {
	// Reproduce the Table 1 measurement loop on the simulated device:
	// issue the canonical instruction 10k times and compare achieved
	// OPS with the paper's column.
	pool, _, params := newTestPool(1)
	d := pool.Devices[0]
	canon := map[isa.OpCode]*isa.Instruction{
		isa.Conv2D:         {Op: isa.Conv2D, InRows: 128, InCols: 128, KRows: 3, KCols: 3, Channels: 1},
		isa.FullyConnected: {Op: isa.FullyConnected, InRows: 128, InCols: 128},
		isa.Add:            {Op: isa.Add, InRows: 128, InCols: 128},
	}
	for op, in := range canon {
		var end timing.Duration
		const n = 1000
		for i := 0; i < n; i++ {
			var err error
			end, err = d.Exec(in, end)
			if err != nil {
				t.Fatal(err)
			}
		}
		start := timing.Duration(0)
		ops := float64(n) / timing.Seconds(end-start)
		paper := params.Op[op].PaperOPS
		ratio := ops / paper
		// Canonical result counts differ slightly from the paper's
		// unknown measurement shapes; allow 40%.
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("%v: simulated %.0f OPS vs paper %.0f", op, ops, paper)
		}
		end = 0
		pool, _, params = newTestPool(1)
		d = pool.Devices[0]
	}
}
