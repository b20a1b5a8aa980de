package server

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// stageSet collects the stage names present on one dumped trace.
func stageSet(rec obs.TraceRec) map[string]bool {
	s := make(map[string]bool, len(rec.Spans))
	for _, sp := range rec.Spans {
		s[sp.Stage] = true
	}
	return s
}

// TestTraceIDPropagation: a client-pinned trace ID must arrive in the
// server's flight recorder attached to a waterfall that covers the
// whole serving path — decode, admission, the engine's queue/charge/
// exec spans, runtime, reply encode, and the total.
func TestTraceIDPropagation(t *testing.T) {
	rec := obs.New(obs.Config{})
	srv := startServer(t, Config{Devices: 1, Obs: rec})
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(5))
	a := tensor.RandUniform(rng, 32, 32, -1, 1)
	b := tensor.RandUniform(rng, 32, 32, -1, 1)

	id := obs.NewTraceID()
	got, err := c.Gemm(a, b, &CallOpts{TraceID: id, NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := tensor.RMSE(blas.NaiveGemm(a, b), got); e > 0.05 {
		t.Fatalf("gemm RMSE %v", e)
	}

	d := rec.Dump()
	if err := obs.Validate(&d); err != nil {
		t.Fatal(err)
	}
	want := obs.FormatID(id)
	var found *obs.TraceRec
	for i := range d.Completed {
		if d.Completed[i].TraceID == want {
			found = &d.Completed[i]
		}
	}
	if found == nil {
		t.Fatalf("trace %s missing from server flight recorder: %+v", want, d.Completed)
	}
	if found.Status != "ok" {
		t.Fatalf("trace status %q, want ok", found.Status)
	}
	if found.Op != "gemm" {
		t.Fatalf("trace op %q, want gemm", found.Op)
	}
	stages := stageSet(*found)
	for _, st := range []string{obs.StageDecode, obs.StageAdmission, obs.StageQueueWait,
		obs.StageCharge, obs.StageExec, obs.StageRuntime, obs.StageReplyEncode, obs.StageTotal} {
		if !stages[st] {
			t.Fatalf("waterfall missing stage %s (have %v)", st, stages)
		}
	}
}

// TestBatchedRequestTraced: a request served through the micro-batcher
// must carry the batch_wait span and the batched membership event, and
// the engine spans fan out to it even though the stacked GEMM ran once.
func TestBatchedRequestTraced(t *testing.T) {
	rec := obs.New(obs.Config{})
	srv := startServer(t, Config{Devices: 1, Obs: rec})
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(6))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	id := obs.NewTraceID()
	if _, err := c.Gemm(a, b, &CallOpts{TraceID: id}); err != nil {
		t.Fatal(err)
	}

	d := rec.Dump()
	want := obs.FormatID(id)
	for _, tr := range d.Completed {
		if tr.TraceID != want {
			continue
		}
		if !stageSet(tr)[obs.StageBatchWait] {
			t.Fatalf("batched request lacks batch_wait span: %+v", tr.Spans)
		}
		for _, e := range tr.Events {
			if e.Name == "batched" {
				return
			}
		}
		t.Fatalf("batched request lacks the batched event: %+v", tr.Events)
	}
	t.Fatalf("trace %s not found", want)
}

// TestShedReplyCarriesTraceID: satellite fix — when admission sheds a
// request, the typed error reply must echo the request's trace ID so
// the client can name the trace that was refused.
func TestShedReplyCarriesTraceID(t *testing.T) {
	rec := obs.New(obs.Config{})
	srv := startServer(t, Config{Devices: 1, MaxInFlight: 1, Obs: rec})
	c := dial(t, srv)

	// Pin the only admission slot so the next request is shed.
	if err := srv.adm.tryAcquire(); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.release()

	rng := rand.New(rand.NewSource(7))
	a := tensor.RandUniform(rng, 16, 16, -1, 1)
	b := tensor.RandUniform(rng, 16, 16, -1, 1)
	id := obs.NewTraceID()
	_, err := c.Gemm(a, b, &CallOpts{TraceID: id})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	tag := "[trace=" + obs.FormatID(id) + "]"
	if !strings.Contains(err.Error(), tag) {
		t.Fatalf("shed reply error %q does not carry %s", err, tag)
	}

	// The server-side trace must be sealed with the shed status and an
	// admission span marked shed.
	d := rec.Dump()
	want := obs.FormatID(id)
	for _, tr := range d.Completed {
		if tr.TraceID != want {
			continue
		}
		if tr.Status != "overloaded" {
			t.Fatalf("shed trace status %q", tr.Status)
		}
		for _, sp := range tr.Spans {
			if sp.Stage == obs.StageAdmission && sp.Attr == "shed" {
				return
			}
		}
		t.Fatalf("shed trace lacks admission span with shed attr: %+v", tr.Spans)
	}
	t.Fatalf("shed trace %s not recorded", want)
}

// TestDeadlineReplyCarriesTraceID: the other typed-error path of the
// satellite fix — a deadline miss echoes the trace ID too.
func TestDeadlineReplyCarriesTraceID(t *testing.T) {
	srv := New(Config{Devices: 1, Obs: obs.New(obs.Config{})})
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(8))
	a := tensor.RandUniform(rng, 16, 16, -1, 1)
	b := tensor.RandUniform(rng, 16, 16, -1, 1)
	// Hold a batch of the same key running, so the traced request waits
	// pending behind it until its deadline has certainly passed.
	leader := make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, nil)
		leader <- err
	}()
	gate.waitRunning(t)
	id := obs.NewTraceID()
	late := make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, &CallOpts{TraceID: id, Deadline: 20 * time.Millisecond})
		late <- err
	}()
	waitPending(t, srv.bat, 1)
	time.Sleep(40 * time.Millisecond) // the pending call's deadline passes
	gate.open()

	if err := <-leader; err != nil {
		t.Fatalf("held leader: %v", err)
	}
	err := <-late
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	tag := "[trace=" + obs.FormatID(id) + "]"
	if !strings.Contains(err.Error(), tag) {
		t.Fatalf("deadline reply error %q does not carry %s", err, tag)
	}
}

// TestFlightDumpConsistencyUnderTraffic is the -race acceptance test:
// dumps taken while concurrent traffic is live must always be
// internally consistent — every span closed or explicitly marked
// in-flight, no finished trace with an open span.
func TestFlightDumpConsistencyUnderTraffic(t *testing.T) {
	rec := obs.New(obs.Config{Capacity: 64})
	srv := startServer(t, Config{Devices: 2, MaxInFlight: 64, Obs: rec})

	const conns = 8
	const perConn = 6
	var wg sync.WaitGroup
	errs := make(chan error, conns*perConn)
	stop := make(chan struct{})
	dumperDone := make(chan struct{})

	go func() { // concurrent dumper
		defer close(dumperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := rec.Dump()
			if err := obs.Validate(&d); err != nil {
				errs <- fmt.Errorf("mid-traffic dump: %w", err)
				return
			}
		}
	}()

	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for i := 0; i < perConn; i++ {
				a := tensor.RandUniform(rng, 16, 16, -1, 1)
				b := tensor.RandUniform(rng, 16, 16, -1, 1)
				if _, err := c.Gemm(a, b, nil); err != nil {
					errs <- fmt.Errorf("conn %d: %w", ci, err)
				}
			}
		}(ci)
	}
	wg.Wait()
	close(stop)
	<-dumperDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	d := rec.Dump()
	if err := obs.Validate(&d); err != nil {
		t.Fatal(err)
	}
	if d.TotalFinished < conns*perConn {
		t.Fatalf("TotalFinished = %d, want >= %d", d.TotalFinished, conns*perConn)
	}
}

// TestFaultRetryAttributed: with the injector failing every execution,
// the request's waterfall must attribute its latency to fault events
// from the engine's charge loop — the flight recorder's core
// acceptance criterion.
func TestFaultRetryAttributed(t *testing.T) {
	rec := obs.New(obs.Config{})
	srv := New(Config{
		Devices:     1,
		RetryBudget: 2,
		Fault:       &fault.Config{Seed: 1, TransientProb: 1},
		Obs:         rec,
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		// Shutdown's drain surfaces the deliberately-exhausted retry
		// budget through Sync; only that error is acceptable here.
		if err := srv.Shutdown(); err != nil && !errors.Is(err, gptpu.ErrRetryBudget) {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c := dial(t, srv)

	rng := rand.New(rand.NewSource(11))
	a := tensor.RandUniform(rng, 16, 16, -1, 1)
	b := tensor.RandUniform(rng, 16, 16, -1, 1)
	id := obs.NewTraceID()
	_, err := c.Gemm(a, b, &CallOpts{TraceID: id})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient under TransientProb 1, got %v", err)
	}

	d := rec.Dump()
	if err := obs.Validate(&d); err != nil {
		t.Fatal(err)
	}
	if n := obs.FaultAttributed(&d); n < 1 {
		t.Fatalf("FaultAttributed = %d, want >= 1", n)
	}
	want := obs.FormatID(id)
	for _, tr := range d.Completed {
		if tr.TraceID != want {
			continue
		}
		var faults int
		for _, e := range tr.Events {
			if e.Fault {
				faults++
			}
		}
		if faults == 0 {
			t.Fatalf("trace %s has no fault events: %+v", want, tr.Events)
		}
		// The injector also freezes a capture at the fault instant.
		if len(d.Captures) == 0 {
			t.Fatal("no capture frozen at the fault moment")
		}
		if !strings.HasPrefix(d.Captures[0].Reason, "fault:") {
			t.Fatalf("capture reason %q, want fault:*", d.Captures[0].Reason)
		}
		return
	}
	t.Fatalf("trace %s not in dump", want)
}
