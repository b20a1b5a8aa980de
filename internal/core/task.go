package core

import (
	"fmt"

	"repro/internal/timing"
)

// Task is one entry of the front-end task operation queue (OPQ): an
// instance of a programmer-supplied kernel function. Tasks "can
// perform out of order in parallel" while operations inside a task
// serialize (paper section 5); Wait and the context's Sync are the
// synchronization primitives of Table 2 (openctpu_wait and
// openctpu_sync).
type Task struct {
	ID int

	done chan struct{}
	err  error
}

// Wait blocks the calling thread until the task returns
// (openctpu_wait) and reports its error, if any.
func (t *Task) Wait() error {
	<-t.done
	return t.err
}

// Enqueue submits a kernel function to the OPQ (openctpu_enqueue):
// the runtime allocates a task ID, opens a serial stream for the
// kernel's operator invocations, and executes the kernel
// concurrently with other tasks.
func (c *Context) Enqueue(kernel func(s *Stream)) *Task {
	return c.EnqueueObserved(nil, kernel)
}

// EnqueueObserved is Enqueue with a per-task observer: every
// instruction the kernel's operators emit reports its queue-wait,
// charge and exec spans (plus fault retry events) to obs. A nil
// observer makes this identical to Enqueue.
func (c *Context) EnqueueObserved(obs TaskObserver, kernel func(s *Stream)) *Task {
	s := c.NewStream()
	s.obs = obs
	t := &Task{ID: s.taskID, done: make(chan struct{})}
	c.mu.Lock()
	c.inflight[t] = struct{}{}
	c.mu.Unlock()
	c.met.opqDepth.Add(1)
	// Record the lifecycle's first span: the enqueue instant, on the
	// task's own trace lane (tasks start at the current makespan).
	c.TL.Mark("opq", c.TL.Makespan(), timing.Span{Phase: "enqueue", Task: t.ID})
	go func() {
		defer c.met.opqDepth.Add(-1)
		defer close(t.done)
		defer c.retire(t) // the kernel has returned: the task's stream is finished
		defer func() {
			if r := recover(); r != nil {
				t.err = fmt.Errorf("core: task %d panicked: %v", t.ID, r)
			}
		}()
		kernel(s)
		if t.err == nil {
			t.err = s.Err()
		}
	}()
	return t
}

// retire takes a returned task off the OPQ: the context keeps only its
// error, if it is the first since the last Sync. A daemon enqueues a
// task per request and never syncs until shutdown, so the OPQ must not
// hold finished tasks.
func (c *Context) retire(t *Task) {
	c.dropAffinity(t.ID)
	c.mu.Lock()
	delete(c.inflight, t)
	if t.err != nil && c.syncErr == nil {
		c.syncErr = t.err
	}
	c.mu.Unlock()
}

// Sync requires all enqueued tasks to complete before it returns
// (openctpu_sync) and reports the first task error since the last Sync,
// in completion order.
func (c *Context) Sync() error {
	c.mu.Lock()
	tasks := make([]*Task, 0, len(c.inflight))
	for t := range c.inflight {
		tasks = append(tasks, t)
	}
	c.mu.Unlock()
	for _, t := range tasks {
		t.Wait()
	}
	c.mu.Lock()
	err := c.syncErr
	c.syncErr = nil
	c.mu.Unlock()
	return err
}
