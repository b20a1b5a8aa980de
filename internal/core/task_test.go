package core

import (
	"errors"
	"sync"
	"testing"
)

// inflightTasks reads the OPQ's size.
func (c *Context) inflightTasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// TestOPQHoldsOnlyInflightTasks: a daemon enqueues a task per request
// and syncs only at shutdown, so a finished task must leave the OPQ.
// (The OPQ used to keep every task until the next Sync.)
func TestOPQHoldsOnlyInflightTasks(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	for i := 0; i < 10000; i++ {
		if err := ctx.Enqueue(func(*Stream) {}).Wait(); err != nil {
			t.Fatal(err)
		}
		if n := ctx.inflightTasks(); n != 0 {
			t.Fatalf("after %d enqueue/wait cycles the OPQ holds %d tasks", i+1, n)
		}
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncReportsRetiredError: a task that failed and finished before
// Sync was called still fails that Sync, however many clean tasks ran
// after it; the next Sync starts clean.
func TestSyncReportsRetiredError(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	if err := ctx.Enqueue(func(*Stream) { panic("boom") }).Wait(); err == nil {
		t.Fatal("a panicking task must fail")
	}
	for i := 0; i < 100; i++ {
		ctx.Enqueue(func(*Stream) {}).Wait()
	}
	errBad := errors.New("bad")
	ctx.Enqueue(func(s *Stream) { s.fail(errBad) }).Wait() // a later error is not the first
	if err := ctx.Sync(); err == nil || errors.Is(err, errBad) {
		t.Fatalf("Sync = %v, want the earlier panic", err)
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal("second Sync should be clean:", err)
	}
}

// TestEnqueueSyncConcurrent runs Enqueue, Wait and Sync from several
// goroutines at once (meant for -race): every Sync returns, and after
// the last one the OPQ is empty.
func TestEnqueueSyncConcurrent(t *testing.T) {
	ctx := testCtx(1)
	defer ctx.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				task := ctx.Enqueue(func(*Stream) {})
				switch i % 3 {
				case 0:
					task.Wait()
				case 1:
					ctx.Sync()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := ctx.inflightTasks(); n != 0 {
		t.Fatalf("OPQ holds %d tasks after the final Sync", n)
	}
}
