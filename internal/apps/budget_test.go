package apps_test

import (
	"math"
	"runtime"
	"runtime/debug"
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
// generation, a fresh two-device context and the run — for each of the
// six applications. Gaussian, HotSpot3D and BlackScholes hand their
// per-iteration matrices back with Context.Release (Gaussian its Mul
// and GEMM operands and products, HotSpot3D its padded grids, conv
// results and superseded grids, BlackScholes its feature matrix and
// the products), the precise operators hand back the split codes of
// each fresh feature buffer, Backprop's and PageRank's graphs release
// every intermediate after its last consumer, and each context's Close
// puts its free list into tensor's recycler for the next run. A run
// that stops releasing goes over: without its releases Gaussian
// allocates several times its budget.
//
// The apps run in a fixed order, each from an emptied recycler, so
// what the app before left in the pools cannot move the next one's
// count from run to run.
func TestAppByteBudget(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	budgets := []struct {
		name string
		kib  int
	}{
		{"pagerank", 545},     // runs 513; 509 before the graph released intermediates
		{"hotspot3d", 505},    // runs 474; 1108 before Release, 618 before Close recycled
		{"backprop", 430},     // runs 402; 485 before the graph released intermediates
		{"lud", 430},          // runs 402; 390 before results were size classes
		{"gaussian", 460},     // runs 434; 2332 before Release, 553 before Close recycled
		{"blackscholes", 200}, // runs 187; 941 before Release, 447 before Close recycled
	}
	run := goldenApps()
	for _, b := range budgets {
		runtime.GC()
		runtime.GC() // twice: the recycler's pools survive one collection
		got := bytesPerRun(func() {
			ctx := gptpu.Open(gptpu.Config{Devices: 2})
			defer ctx.Close()
			if _, _, err := run[b.name](ctx); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f KiB per run (budget %d KiB)", b.name, got/1024, b.kib)
		if got > float64(b.kib<<10) {
			t.Errorf("%s: %.0f KiB per run, budget %d KiB — is a per-iteration matrix no longer released?", b.name, got/1024, b.kib)
		}
	}
}

// TestCloseFeedsNextContext: what a closed context released serves the
// next one. With the collector off and the recycler emptied, a second
// fresh context running the same application allocates at most two
// thirds of what the first did; if Close dropped its free list,
// HotSpot3D's second run would allocate nine tenths of its first.
func TestCloseFeedsNextContext(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	run := goldenApps()
	for _, name := range []string{"hotspot3d", "gaussian", "blackscholes"} {
		once := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ctx := gptpu.Open(gptpu.Config{Devices: 2})
			if _, _, err := run[name](ctx); err != nil {
				t.Fatal(err)
			}
			ctx.Close()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		once() // first-use allocations of the program
		gc := debug.SetGCPercent(-1)
		runtime.GC()
		runtime.GC() // twice: the recycler's pools survive one collection
		first := once()
		second := once()
		debug.SetGCPercent(gc)
		t.Logf("%s: first context %d KiB, second %d KiB", name, first>>10, second>>10)
		if 3*second > 2*first {
			t.Errorf("%s: second context allocated %d KiB, first %d KiB — does Close still hand its free list to the recycler?", name, second>>10, first>>10)
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
