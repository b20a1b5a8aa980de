package server

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestServeRequestsConserved is the daemon's first conservation law:
// after a loopback run that answers ok, bad_request, overloaded and
// deadline, every request counted by gptpu_serve_requests_total has
// exactly one reply in gptpu_serve_replies_total, and neither the
// admission gauge nor the flight recorder holds a request.
func TestServeRequestsConserved(t *testing.T) {
	rec := obs.New(obs.Config{})
	srv, c, err := Loopback(Config{Devices: 1, MaxInFlight: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	// The hook is set before the first request is written.
	gate := holdFlushes(srv.bat)

	rng := rand.New(rand.NewSource(11))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	if _, err := c.Add(a, b, nil); err != nil {
		t.Fatalf("add: %v", err)
	}
	if _, err := c.Gemm(a, tensor.New(3, 5), nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("mismatched gemm: want ErrBadRequest, got %v", err)
	}

	// A held batch and a rider behind it fill both admission slots.
	leader, rider := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := c.Gemm(a, b, nil)
		leader <- err
	}()
	gate.waitRunning(t)
	go func() {
		_, err := c.Gemm(a, b, &CallOpts{Deadline: 20 * time.Millisecond})
		rider <- err
	}()
	waitPending(t, srv.bat, 1)
	if _, err := c.Add(a, b, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("add with both slots taken: want ErrOverloaded, got %v", err)
	}
	time.Sleep(40 * time.Millisecond) // the rider's deadline passes
	gate.open()
	if err := <-leader; err != nil {
		t.Fatalf("held leader: %v", err)
	}
	if err := <-rider; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("rider: want ErrDeadlineExceeded, got %v", err)
	}

	total := func(name string) (sum float64) {
		for _, fam := range srv.Metrics().Snapshot() {
			for _, smp := range fam.Samples {
				if fam.Name == name {
					sum += smp.Value
				}
			}
		}
		return sum
	}
	for status, want := range map[string]float64{"ok": 2, "bad_request": 1, "overloaded": 1, "deadline": 1} {
		if got := srv.door.replies.With(status).Value(); got != want {
			t.Errorf("replies{status=%q} = %v, want %v", status, got, want)
		}
	}
	if req, rep := total("gptpu_serve_requests_total"), total("gptpu_serve_replies_total"); req != 5 || rep != req {
		t.Errorf("gptpu_serve_requests_total = %v, Σ gptpu_serve_replies_total = %v, want both 5", req, rep)
	}
	if a, n := total("gptpu_serve_inflight"), len(rec.Dump().InFlight); a != 0 || n != 0 {
		t.Errorf("gptpu_serve_inflight = %v, %d traces in flight after every reply, want 0", a, n)
	}
}

// TestStageHistogramConserved: the sealed trace alone feeds the stage
// histogram. After n traced requests (batched GEMMs, adds and bad
// requests), gptpu_serve_stage_seconds counts one total per reply, and
// each stage's sum is its spans summed over the flight recorder's
// completed waterfalls.
func TestStageHistogramConserved(t *testing.T) {
	rec := obs.New(obs.Config{})
	srv, c, err := Loopback(Config{Devices: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	a := tensor.RandUniform(rand.New(rand.NewSource(12)), 8, 8, -1, 1)
	const n = 12
	for i := 0; i < n; i += 3 {
		if _, err := c.Gemm(a, a, nil); err != nil {
			t.Fatalf("gemm: %v", err)
		}
		if _, err := c.Add(a, a, nil); err != nil {
			t.Fatalf("add: %v", err)
		}
		if _, err := c.Gemm(a, tensor.New(3, 5), nil); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("mismatched gemm: want ErrBadRequest, got %v", err)
		}
	}
	checkStageHistogram(t, srv.Metrics(), "gptpu_serve", rec.Dump(), n)
}

// checkStageHistogram checks prefix_stage_seconds in reg against
// prefix_replies_total and the completed waterfalls of d, which must
// hold all n requests: one total observation per reply, and each
// stage's sum equal to its span durations to the microsecond.
func checkStageHistogram(t *testing.T, reg *telemetry.Registry, prefix string, d obs.FlightDump, n int) {
	t.Helper()
	spans := map[string]float64{} // stage → seconds over the waterfalls
	for _, tr := range d.Completed {
		for _, sp := range tr.Spans {
			spans[sp.Stage] += sp.DurUS / 1e6
		}
	}
	hist := map[string]*telemetry.HistSnapshot{}
	replies := 0.0
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Samples {
			if fam.Name == prefix+"_stage_seconds" {
				hist[s.Labels[0].Value] = s.Hist
			} else if fam.Name == prefix+"_replies_total" {
				replies += s.Value
			}
		}
	}
	total := hist[obs.StageTotal]
	if total == nil || total.Count != uint64(n) || replies != float64(n) || len(d.Completed) != n {
		t.Fatalf("%s: total stage %+v, Σ replies %v, %d waterfalls; want %d of each", prefix, total, replies, len(d.Completed), n)
	}
	if len(hist) != len(spans) {
		t.Errorf("%s: %d stages in the histogram, %d in the waterfalls", prefix, len(hist), len(spans))
	}
	for stage, sec := range spans {
		if h := hist[stage]; h == nil || math.Abs(h.Sum-sec) > 1e-6 {
			t.Errorf("%s: stage %s histogram %+v, want sum %g s", prefix, stage, h, sec)
		}
	}
}
