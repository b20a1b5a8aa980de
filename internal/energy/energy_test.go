package energy

import (
	"math"
	"testing"
	"time"

	"repro/internal/timing"
)

func TestPowerFor(t *testing.T) {
	cases := map[string]float64{
		"edgetpu0":        TPUWatts,
		"edgetpu7":        TPUWatts,
		"cpu-core0":       CPUCoreWatts,
		"gpu-rtx2080":     RTX2080Watts,
		"gpu-jetson":      JetsonNanoWatts,
		"pcie-dev0-link":  0,
		"something-else":  0,
		"pcie-card1-upli": 0,
	}
	for name, want := range cases {
		if got := PowerFor(name); got != want {
			t.Errorf("PowerFor(%q)=%v want %v", name, got, want)
		}
	}
}

func TestPaperPowerRangesRespected(t *testing.T) {
	if CPUCoreWatts < CPUCoreWattsLo || CPUCoreWatts > CPUCoreWattsHi {
		t.Fatal("CPU core midpoint outside paper range")
	}
	if TPUWatts < TPUWattsLo || TPUWatts > TPUWattsHi {
		t.Fatal("TPU midpoint outside paper range")
	}
	// Paper section 9.3: 8 Edge TPUs "consume similar active power as
	// a single RyZen core".
	if eight := 8 * TPUWatts; eight < CPUCoreWattsLo || eight > CPUCoreWattsHi+1 {
		t.Fatalf("8x TPU power %v should be comparable to one core (%v-%v)", eight, CPUCoreWattsLo, CPUCoreWattsHi)
	}
}

func TestMeasureIntegration(t *testing.T) {
	tl := timing.NewTimeline()
	cpu := tl.NewResource("cpu-core0")
	tpu := tl.NewResource("edgetpu0")
	cpu.Acquire(0, 2*time.Second)
	tpu.Acquire(0, 1*time.Second)
	tl.Observe(2 * time.Second)
	rep := Measure(tl)
	if rep.Makespan != 2*time.Second {
		t.Fatalf("makespan %v", rep.Makespan)
	}
	wantActive := CPUCoreWatts*2 + TPUWatts*1
	if math.Abs(rep.ActiveJoules-wantActive) > 1e-9 {
		t.Fatalf("active %v want %v", rep.ActiveJoules, wantActive)
	}
	if math.Abs(rep.IdleJoules-80) > 1e-9 {
		t.Fatalf("idle %v want 80", rep.IdleJoules)
	}
	if math.Abs(rep.TotalJoules()-(wantActive+80)) > 1e-9 {
		t.Fatal("total mismatch")
	}
	if math.Abs(rep.EDP()-rep.TotalJoules()*2) > 1e-9 {
		t.Fatal("EDP mismatch")
	}
}

func TestMeasureWithCustomFloor(t *testing.T) {
	tl := timing.NewTimeline()
	g := tl.NewResource("gpu-jetson")
	g.Acquire(0, time.Second)
	rep := MeasureWith(tl, PowerFor, JetsonIdleWatts)
	if math.Abs(rep.IdleJoules-0.5) > 1e-9 {
		t.Fatalf("jetson idle %v", rep.IdleJoules)
	}
	if math.Abs(rep.ActiveJoules-JetsonNanoWatts) > 1e-9 {
		t.Fatalf("jetson active %v", rep.ActiveJoules)
	}
}

func TestTPUPlatformBeatsCPUOnEnergyForEqualWork(t *testing.T) {
	// A sanity check of the headline claim's mechanism: if the TPU
	// finishes the same job 2x faster, the platform energy must drop
	// (idle floor dominates).
	cpuTL := timing.NewTimeline()
	c := cpuTL.NewResource("cpu-core0")
	c.Acquire(0, 10*time.Second)
	cpuRep := Measure(cpuTL)

	tpuTL := timing.NewTimeline()
	tp := tpuTL.NewResource("edgetpu0")
	tp.Acquire(0, 5*time.Second)
	tpuRep := Measure(tpuTL)

	if tpuRep.TotalJoules() >= cpuRep.TotalJoules() {
		t.Fatalf("TPU run must use less energy: %v vs %v", tpuRep.TotalJoules(), cpuRep.TotalJoules())
	}
}
