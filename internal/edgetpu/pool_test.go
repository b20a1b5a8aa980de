package edgetpu

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// countJob marks each row it is asked to compute; the chunk-coverage
// tests require every row claimed exactly once no matter how the pool
// carves the range.
type countJob struct {
	hits []int32
}

func (j *countJob) runRows(lo, hi int) {
	for r := lo; r < hi; r++ {
		atomic.AddInt32(&j.hits[r], 1)
	}
}

// TestParallelRowsChunkCoverage sweeps ragged row counts (primes, one
// off a power of two, rows < threads) against every pool width: each
// row must be visited exactly once.
func TestParallelRowsChunkCoverage(t *testing.T) {
	defer SetKernelThreads(0)
	for _, threads := range []int{1, 2, 3, 4, 8} {
		SetKernelThreads(threads)
		for _, rows := range []int{1, 2, 3, 5, 7, 8, 9, 31, 127, 128, 129} {
			j := &countJob{hits: make([]int32, rows)}
			// A huge perRow weight forces the parallel path whenever the
			// width allows, so the chunk math itself is what's tested.
			parallelRows(rows, 1<<20, j)
			for r, n := range j.hits {
				if n != 1 {
					t.Fatalf("threads=%d rows=%d: row %d computed %d times", threads, rows, r, n)
				}
			}
		}
	}
}

// TestParallelRowsConcurrentCallers hammers the single job slot from
// many goroutines at once — callers must serialize on the slot without
// losing or double-running chunks (run under -race by the CI smoke).
func TestParallelRowsConcurrentCallers(t *testing.T) {
	defer SetKernelThreads(0)
	SetKernelThreads(4)
	const callers, iters, rows = 8, 50, 97
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := &countJob{hits: make([]int32, rows)}
				parallelRows(rows, 1<<20, j)
				for r, n := range j.hits {
					if n != 1 {
						select {
						case errs <- fmt.Sprintf("row %d computed %d times", r, n):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestSerialCutoff pins the fallback policy: tile-edge shapes stay on
// the serial path (no job dispatched, fallback counter moves) even at
// the widest setting, and still produce reference-exact results.
func TestSerialCutoff(t *testing.T) {
	defer SetKernelThreads(0)
	SetKernelThreads(8)
	rng := rand.New(rand.NewSource(41))

	a, b := randI8(rng, 4, 4), randI8(rng, 4, 4)
	jobs0, serial0 := poolJobs.Load(), poolSerial.Load()
	got := Add(a, b)
	if poolJobs.Load() != jobs0 {
		t.Fatalf("4x4 Add dispatched a pool job; want serial fallback")
	}
	if poolSerial.Load() != serial0+1 {
		t.Fatalf("serial fallback counter did not move for 4x4 Add")
	}
	sameI32(t, "Add(serial-cutoff)", got, RefAdd(a, b))
	tensor.PutI32(got)

	// A 128x128 slab crosses parMinWork and must use the pool.
	a2, b2 := randI8(rng, 128, 128), randI8(rng, 128, 128)
	jobs1 := poolJobs.Load()
	got2 := Add(a2, b2)
	if poolJobs.Load() != jobs1+1 {
		t.Fatalf("128x128 Add stayed serial; want a pool job")
	}
	sameI32(t, "Add(parallel)", got2, RefAdd(a2, b2))
	tensor.PutI32(got2)

	// Width 1 must never dispatch, whatever the shape.
	SetKernelThreads(1)
	jobs2 := poolJobs.Load()
	got3 := Add(a2, b2)
	if poolJobs.Load() != jobs2 {
		t.Fatalf("width-1 Add dispatched a pool job")
	}
	sameI32(t, "Add(width-1)", got3, RefAdd(a2, b2))
	tensor.PutI32(got3)
}

// TestKernelThreadsClamps pins the knob's bounds: negatives restore
// auto, oversize widths clamp, and the auto default stays in [1, 8].
func TestKernelThreadsClamps(t *testing.T) {
	defer SetKernelThreads(0)
	SetKernelThreads(-5)
	if got := kernelThreadSetting.Load(); got != 0 {
		t.Fatalf("negative setting stored %d, want 0 (auto)", got)
	}
	SetKernelThreads(1000)
	if got := KernelThreads(); got != maxKernelThreads {
		t.Fatalf("oversize setting yields %d, want clamp to %d", got, maxKernelThreads)
	}
	SetKernelThreads(0)
	if got := KernelThreads(); got < 1 || got > 8 {
		t.Fatalf("auto width %d outside [1, 8]", got)
	}
}

// TestPoolHelperBound: however wide the jobs so far ran, the pool may
// hold at most maxKernelThreads-1 persistent helpers (the submitting
// caller is always the remaining participant).
func TestPoolHelperBound(t *testing.T) {
	defer SetKernelThreads(0)
	SetKernelThreads(maxKernelThreads)
	j := &countJob{hits: make([]int32, 256)}
	parallelRows(256, 1<<20, j)
	if h := KernelPoolSnapshot().Helpers; h > maxKernelThreads-1 {
		t.Fatalf("pool spawned %d helpers, max is %d", h, maxKernelThreads-1)
	}
}

// TestTanhCacheConcurrent hammers the copy-on-write LUT cache from
// many goroutines across more scales than its capacity, so growth,
// the cold-restart eviction path, and concurrent readers all overlap.
// The CI smoke runs it under -race.
func TestTanhCacheConcurrent(t *testing.T) {
	const workers = 8
	const scalesPerWorker = 24 // workers * scalesPerWorker > tanhCacheCap
	rng := rand.New(rand.NewSource(43))
	in := randI8(rng, 16, 16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < scalesPerWorker; i++ {
				scale := float32(w*scalesPerWorker+i+1) * 0.37
				got := TanhLUT(in, scale)
				want := RefTanhLUT(in, scale)
				for r := 0; r < got.Rows; r++ {
					gr, wr := got.Row(r), want.Row(r)
					for c := range gr {
						if gr[c] != wr[c] {
							t.Errorf("TanhLUT scale=%v [%d][%d] = %d, want %d", scale, r, c, gr[c], wr[c])
							return
						}
					}
				}
				tensor.PutI8(got)
			}
		}(w)
	}
	wg.Wait()
}

// TestParallelPathAllocs proves the steady-state budget: a parallel
// pairwise call and a parallel GEMM call allocate nothing per
// invocation once the job descriptors and tensor buffers are pooled —
// and the serial path keeps its existing zero budget.
func TestParallelPathAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool intentionally drops puts under the race detector, so pooled job descriptors re-allocate")
	}
	defer SetKernelThreads(0)
	rng := rand.New(rand.NewSource(47))
	a, b := randI8(rng, 128, 128), randI8(rng, 128, 128)
	wins, kers := randI8(rng, 128, 144), randI8(rng, 128, 144)

	for _, threads := range []int{1, 4} {
		SetKernelThreads(threads)
		// Warm the pools (helpers, job descriptors, tensor buffers).
		for i := 0; i < 3; i++ {
			tensor.PutI32(Add(a, b))
			tensor.PutI32(Conv2DGemm(wins, kers))
		}
		if n := testing.AllocsPerRun(50, func() {
			tensor.PutI32(Add(a, b))
		}); n > 0 {
			t.Errorf("Add at threads=%d: %.1f allocs/op, want 0", threads, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			tensor.PutI32(Conv2DGemm(wins, kers))
		}); n > 0 {
			t.Errorf("Conv2DGemm at threads=%d: %.1f allocs/op, want 0", threads, n)
		}
	}
}
