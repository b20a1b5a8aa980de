package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/tensor"
)

// engineWorkload runs a fixed multi-operator workload and returns the
// virtual makespan plus the functional results, for comparing across
// dispatch-engine worker counts.
func engineWorkload(workers int) (makespan float64, gemm, add *tensor.Matrix) {
	ctx := NewContext(Config{Devices: 4, DispatchWorkers: workers})
	defer ctx.Close()

	rng := rand.New(rand.NewSource(99))
	a := tensor.RandUniform(rng, 300, 300, -1, 1)
	b := tensor.RandUniform(rng, 300, 300, -1, 1)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)

	s := ctx.NewOp()
	gemm = s.Gemm(ba, bb)
	add = s.Add(ba, bb)
	s.Mean(ba)
	if s.Err() != nil {
		panic(s.Err())
	}
	return ctx.Elapsed().Seconds(), gemm, add
}

func TestMakespanWorkerInvariance(t *testing.T) {
	// The engine's charge stage is strictly enqueue-ordered, so the
	// virtual makespan — and every functional bit — must be identical
	// whether one worker or many dispatch the instruction queue.
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	mk0, gemm0, add0 := engineWorkload(counts[0])
	if mk0 <= 0 {
		t.Fatal("workload charged no virtual time")
	}
	for _, w := range counts[1:] {
		mk, gemm, add := engineWorkload(w)
		if mk != mk0 {
			t.Fatalf("makespan diverged: %d workers %.12fs vs 1 worker %.12fs", w, mk, mk0)
		}
		for i := range gemm0.Data {
			if gemm.Data[i] != gemm0.Data[i] {
				t.Fatalf("%d workers: gemm result diverged at %d: %v vs %v",
					w, i, gemm.Data[i], gemm0.Data[i])
			}
		}
		for i := range add0.Data {
			if add.Data[i] != add0.Data[i] {
				t.Fatalf("%d workers: add result diverged at %d", w, i)
			}
		}
	}
}

func TestDeviceLostRetryConcurrentStreams(t *testing.T) {
	// N parallel OPQ tasks keep the IQ busy while two of four devices
	// fail mid-flight: every instruction must reroute (none lost, no
	// task error) and every functional result must still be correct.
	ctx := NewContext(Config{Devices: 4, DispatchWorkers: 4})
	defer ctx.Close()

	rng := rand.New(rand.NewSource(7))
	const tasks = 8
	as := make([]*tensor.Matrix, tasks)
	bs := make([]*tensor.Matrix, tasks)
	outs := make([]*tensor.Matrix, tasks)
	for i := 0; i < tasks; i++ {
		as[i] = tensor.RandUniform(rng, 160, 160, -1, 1)
		bs[i] = tensor.RandUniform(rng, 160, 160, -1, 1)
	}

	var started sync.WaitGroup
	started.Add(tasks)
	for i := 0; i < tasks; i++ {
		i := i
		ba, bb := ctx.CreateMatrixBuffer(as[i]), ctx.CreateMatrixBuffer(bs[i])
		ctx.Enqueue(func(s *Stream) {
			started.Done()
			outs[i] = s.Add(ba, bb)
		})
	}
	// Fail half the pool while the tasks are dispatching.
	go func() {
		started.Wait()
		ctx.Pool.Devices[1].Fail()
		ctx.Pool.Devices[3].Fail()
	}()

	if err := ctx.Sync(); err != nil {
		t.Fatal("tasks must survive device loss:", err)
	}
	for i := 0; i < tasks; i++ {
		ref := tensor.New(160, 160)
		for j := range ref.Data {
			ref.Data[j] = as[i].Data[j] + bs[i].Data[j]
		}
		if e := tensor.RMSE(ref, outs[i]); e > 0.02 {
			t.Errorf("task %d result wrong after failover (RMSE %v)", i, e)
		}
	}
}

func TestResetDrainsInflightWork(t *testing.T) {
	// Reset must quiesce the engine: an in-flight instruction (its
	// functional closure still running) holds Reset back until it
	// completes, so no worker charges virtual time across the rewind.
	ctx := testCtx(1)
	release := make(chan struct{})
	running := make(chan struct{})
	bt := &batch{}
	ctx.engine().submit([]instrWork{{
		instr:    isa.Instruction{Op: isa.Add, InRows: 4, InCols: 4},
		inputs:   []inputRef{{key: ctx.nextKey(), bytes: 16}},
		outBytes: 16,
		fn: func() {
			close(running)
			<-release
		},
	}}, bt)
	<-running

	resetDone := make(chan struct{})
	go func() {
		ctx.Reset()
		close(resetDone)
	}()
	select {
	case <-resetDone:
		t.Fatal("Reset returned while an instruction was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-resetDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not complete after the in-flight work finished")
	}
	if _, err := bt.collect(); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsDeviceResidency(t *testing.T) {
	// Reset's contract: device memories restart cold, so a rerun of
	// the same operator must miss, not hit.
	ctx := testCtx(2)
	rng := rand.New(rand.NewSource(12))
	a := tensor.RandUniform(rng, 200, 200, -1, 1)
	b := tensor.RandUniform(rng, 200, 200, -1, 1)
	ba, bb := ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b)

	s := ctx.NewOp()
	s.Add(ba, bb)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	hitsBefore := make([]int64, len(ctx.Pool.Devices))
	missesBefore := make([]int64, len(ctx.Pool.Devices))
	for i, d := range ctx.Pool.Devices {
		if hitsBefore[i], missesBefore[i], _ = d.ResidencyStats(); missesBefore[i] == 0 {
			t.Fatalf("expected uploads to device %d after an operator", d.ID)
		}
	}

	ctx.Reset()
	if got := ctx.Elapsed().Seconds(); got != 0 {
		t.Fatalf("makespan after Reset = %v, want 0", got)
	}

	// The rerun must re-upload on every device: misses grow and nothing
	// hits, because nothing survived.
	s2 := ctx.NewOp()
	s2.Add(ba, bb)
	if s2.Err() != nil {
		t.Fatal(s2.Err())
	}
	for i, d := range ctx.Pool.Devices {
		hitsAfter, missesAfter, _ := d.ResidencyStats()
		if missesAfter <= missesBefore[i] || hitsAfter != hitsBefore[i] {
			t.Fatalf("rerun after Reset should upload cold on device %d (misses %d -> %d, hits %d -> %d)",
				d.ID, missesBefore[i], missesAfter, hitsBefore[i], hitsAfter)
		}
	}
}

func TestCloseIdempotentAndConcurrentWithSubmits(t *testing.T) {
	// Server shutdown calls Close while client goroutines may still be
	// submitting operators. Close must be idempotent, callable from
	// several goroutines at once, and must fail late submissions with
	// ErrClosed instead of panicking the worker pool.
	ctx := testCtx(2)
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandUniform(rng, 64, 64, -1, 1)
	b := tensor.RandUniform(rng, 64, 64, -1, 1)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := ctx.NewOp()
				s.Add(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
				if err := s.Err(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("submit racing Close: want nil or ErrClosed, got %v", err)
					return
				}
			}
		}()
	}
	// Several concurrent closers, twice over: idempotent and race-free.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx.Close()
			ctx.Close()
		}()
	}
	wg.Wait()

	// After Close, operators must report ErrClosed, not panic.
	s := ctx.NewOp()
	s.Add(ctx.CreateMatrixBuffer(a), ctx.CreateMatrixBuffer(b))
	if !errors.Is(s.Err(), ErrClosed) {
		t.Fatalf("operator after Close: want ErrClosed, got %v", s.Err())
	}
}

func TestEngineWorkersRetireWhenIdle(t *testing.T) {
	// The engine spawns workers lazily and retires them once the queue
	// drains, so an idle context pins no goroutines and Close is
	// optional.
	ctx := testCtx(1)
	s := ctx.NewOp()
	s.Add(ctx.CreateMatrixBuffer(tensor.New(32, 32)), ctx.CreateMatrixBuffer(tensor.New(32, 32)))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	e := ctx.engine()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		running := e.running
		e.mu.Unlock()
		if running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still running on an idle engine", running)
		}
		time.Sleep(time.Millisecond)
	}
	ctx.Close()
}
