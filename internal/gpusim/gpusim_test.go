package gpusim

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/timing"
)

func TestKernelComputeBound(t *testing.T) {
	g := New(RTX2080())
	end := g.Kernel(0, 9.0e12, 0, FP32) // exactly one second of FP32
	want := g.M.Launch + timing.FromSeconds(1)
	if end != want {
		t.Fatalf("end %v want %v", end, want)
	}
}

func TestKernelMemoryBound(t *testing.T) {
	g := New(RTX2080())
	// Tiny flops, one full second of memory traffic.
	end := g.Kernel(0, 1, int64(g.M.MemBW), FP32)
	if end < timing.FromSeconds(1) {
		t.Fatalf("memory-bound kernel finished too fast: %v", end)
	}
}

func TestPrecisionRates(t *testing.T) {
	g := New(RTX2080())
	f32 := g.Kernel(0, 1e12, 0, FP32)
	g2 := New(RTX2080())
	i8 := g2.Kernel(0, 1e12, 0, INT8)
	if i8 >= f32 {
		t.Fatal("INT8 tensor cores must beat FP32")
	}
}

func TestTransfer(t *testing.T) {
	g := New(RTX2080())
	end := g.Transfer(0, int64(g.M.HostBW)) // one second of PCIe
	if end != timing.FromSeconds(1) {
		t.Fatalf("transfer end %v", end)
	}
	if g.Transfer(5, 0) != 5 {
		t.Fatal("zero transfer must be free")
	}
}

func TestRelativeSpeedRTXvsJetson(t *testing.T) {
	flops := 2.0 * 4096 * 4096 * 4096
	r := New(RTX2080())
	j := New(JetsonNano())
	re := r.Kernel(0, flops, 0, FP32)
	je := j.Kernel(0, flops, 0, FP32)
	ratio := je.Seconds() / re.Seconds()
	if ratio < 10 {
		t.Fatalf("RTX should be over an order of magnitude faster, got %.1fx", ratio)
	}
}

func TestEnergyFloors(t *testing.T) {
	r := New(RTX2080())
	r.Kernel(0, 9e12, 0, FP32)
	re := r.Energy()
	if re.IdleJoules < energy.PlatformIdleWatts*0.9 {
		t.Fatalf("RTX platform idle %v too low", re.IdleJoules)
	}
	j := New(JetsonNano())
	j.Kernel(0, 3.0e10, 0, FP32) // ~1s of effective FP32
	je := j.Energy()
	if je.IdleJoules > 1 {
		t.Fatalf("jetson idle %v should be ~0.5J", je.IdleJoules)
	}
	if je.ActiveJoules >= re.ActiveJoules {
		t.Fatal("jetson active energy should be below RTX for 1s of work")
	}
}

func TestBadPrecisionPanics(t *testing.T) {
	g := New(&Model{Name: "x", FP32Flops: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Kernel(0, 1, 0, FP32)
}
