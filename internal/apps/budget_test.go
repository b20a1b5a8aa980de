package apps_test

import (
	"math"
	"runtime"
	"testing"

	gptpu "repro"
	"repro/internal/tensor"
)

// TestTimingOnlyMatchesFunctional is what lets a timing-only
// paper-scale number stand for a functional one: at TestAppGoldens'
// configurations, each application's timing-only virtual makespan
// equals its functional one to the nanosecond. HotSpot3D, Gaussian and
// BlackScholes build their operands through Context.Matrix, so their
// two modes run different code; this pins that they charge the same.
func TestTimingOnlyMatchesFunctional(t *testing.T) {
	for name, run := range goldenApps() {
		t.Run(name, func(t *testing.T) {
			var elapsed [2]int64
			for i, timingOnly := range []bool{false, true} {
				ctx := gptpu.Open(gptpu.Config{Devices: 2, TimingOnly: timingOnly})
				_, m, err := run(ctx)
				ctx.Close()
				if err != nil {
					t.Fatal(err)
				}
				elapsed[i] = int64(m.Elapsed)
			}
			if elapsed[0] != elapsed[1] {
				t.Errorf("%s: timing-only makespan %d ns, functional %d ns", name, elapsed[1], elapsed[0])
			}
		})
	}
}

// TestAppByteBudget pins the bytes one functional run allocates — input
// generation, a fresh two-device context and the run — for the three
// applications that hand their per-iteration matrices back with
// Context.Release: Gaussian its Mul and GEMM operands and products,
// HotSpot3D its padded grids, conv results and superseded grids,
// BlackScholes its feature matrix (one for both CNDF products) and the
// products, while the precise operators hand back the split codes of
// each fresh feature buffer. A run that stops releasing goes over:
// without its releases Gaussian allocates several times its budget.
func TestAppByteBudget(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	budget := map[string]int{ // KiB
		"gaussian":     650, // 2332 before Release
		"hotspot3d":    720, // 1108
		"blackscholes": 520, // 941; 672 while the split codes were kept
	}
	run := goldenApps()
	for name, kib := range budget {
		got := bytesPerRun(func() {
			ctx := gptpu.Open(gptpu.Config{Devices: 2})
			defer ctx.Close()
			if _, _, err := run[name](ctx); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f KiB per run (budget %d KiB)", name, got/1024, kib)
		if got > float64(kib<<10) {
			t.Errorf("%s: %.0f KiB per run, budget %d KiB — is a per-iteration matrix no longer released?", name, got/1024, kib)
		}
	}
}

// bytesPerRun returns the fewest bytes one call of f allocates, over
// calls after a warm-up, so scratch that a pool dropped between calls
// cannot fail a budget while a matrix allocated on every call still
// shows.
func bytesPerRun(f func()) float64 {
	f()
	var before, after runtime.MemStats
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return best
}
