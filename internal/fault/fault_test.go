package fault

import (
	"testing"
	"time"
)

func TestEmptyPlanYieldsNilInjector(t *testing.T) {
	if New(nil) != nil {
		t.Fatal("nil config must yield nil injector")
	}
	if New(&Config{Seed: 7}) != nil {
		t.Fatal("seed-only config injects nothing and must yield nil")
	}
	var nilInj *Injector
	if nilInj.ExecTransient() {
		t.Fatal("nil injector must never fault")
	}
	if nilInj.KillDue(0, time.Hour) || nilInj.ReviveDue(0, time.Hour) {
		t.Fatal("nil injector must never schedule events")
	}
	if s := nilInj.LinkScale(3); s != 1 {
		t.Fatalf("nil injector link scale = %v, want 1", s)
	}
}

func TestTransientDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []bool {
		inj := New(&Config{Seed: seed, TransientProb: 0.3})
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.ExecTransient()
		}
		return out
	}
	a, b := draw(42), draw(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeds", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("prob 0.3 over 64 draws gave %d hits — injector not probabilistic", hits)
	}
}

func TestKillReviveFireOnce(t *testing.T) {
	inj := New(&Config{
		Kill:   []Event{{Device: 1, At: 5 * time.Millisecond}},
		Revive: []Event{{Device: 1, At: 20 * time.Millisecond}},
	})
	if inj.KillDue(1, 4*time.Millisecond) {
		t.Fatal("kill fired before its virtual time")
	}
	if inj.KillDue(0, time.Hour) {
		t.Fatal("kill fired for an unscheduled device")
	}
	if !inj.KillDue(1, 5*time.Millisecond) {
		t.Fatal("kill did not fire at its virtual time")
	}
	if inj.KillDue(1, time.Hour) {
		t.Fatal("kill fired twice")
	}
	if inj.ReviveDue(1, 19*time.Millisecond) {
		t.Fatal("revive fired early")
	}
	if !inj.ReviveDue(1, 25*time.Millisecond) {
		t.Fatal("revive did not fire")
	}
	if inj.ReviveDue(1, time.Hour) {
		t.Fatal("revive fired twice")
	}
}

func TestLinkScale(t *testing.T) {
	inj := New(&Config{LinkScale: map[int]float64{2: 2.5}})
	if s := inj.LinkScale(2); s != 2.5 {
		t.Fatalf("scale = %v, want 2.5", s)
	}
	if s := inj.LinkScale(0); s != 1 {
		t.Fatalf("undegraded device scale = %v, want 1", s)
	}
}

func TestParseEvents(t *testing.T) {
	evs, err := parseEvents(" 1@5ms, 3@1s ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{Device: 1, At: 5 * time.Millisecond}, {Device: 3, At: time.Second}}
	if len(evs) != len(want) {
		t.Fatalf("got %d events", len(evs))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if evs, err := parseEvents(""); err != nil || evs != nil {
		t.Fatalf("empty spec: %v, %v", evs, err)
	}
	for _, bad := range []string{"1", "x@5ms", "-1@5ms", "1@banana", "1@-5ms"} {
		if _, err := parseEvents(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestParseScales(t *testing.T) {
	m, err := parseScales("0@2.5,2@1.5")
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 2.5 || m[2] != 1.5 {
		t.Fatalf("scales = %v", m)
	}
	for _, bad := range []string{"0", "a@2", "0@zero", "0@0", "0@-1"} {
		if _, err := parseScales(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestFlagsConfig(t *testing.T) {
	var f Flags
	f.Seed = 9
	f.Transient = 0.5
	f.Kill = "0@1ms"
	f.Revive = "0@2ms"
	f.Link = "1@3"
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.TransientProb != 0.5 || len(cfg.Kill) != 1 ||
		len(cfg.Revive) != 1 || cfg.LinkScale[1] != 3 {
		t.Fatalf("config = %+v", cfg)
	}

	var empty Flags
	empty.Seed = 1 // the flag default: seed alone must not arm injection
	cfg, err = empty.Config()
	if err != nil || cfg != nil {
		t.Fatalf("empty flags: cfg=%+v err=%v", cfg, err)
	}

	var bad Flags
	bad.Transient = 1.5
	if _, err := bad.Config(); err == nil {
		t.Fatal("transient prob > 1 accepted")
	}
}
