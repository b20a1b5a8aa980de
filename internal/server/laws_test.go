package server

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// TestServeRequestsConserved is the daemon's first conservation law:
// after a loopback run that answers ok, bad_request, overloaded and
// deadline, every request counted by gptpu_serve_requests_total has
// exactly one reply in gptpu_serve_replies_total, and neither the
// admission gauge nor the flight recorder holds a request.
func TestServeRequestsConserved(t *testing.T) {
	srv, c, err := Loopback(Config{Devices: 1, MaxInFlight: 2, Obs: obs.New(obs.Config{})})
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
		for _, fam := range srv.Metrics().Snapshot() { // runs the recorder's gauge hook
			for _, smp := range fam.Samples {
				if fam.Name == name {
					sum += smp.Value
				}
			}
		}
		return sum
	}
	for status, want := range map[string]float64{"ok": 2, "bad_request": 1, "overloaded": 1, "deadline": 1} {
		if got := srv.met.replies.With(status).Value(); got != want {
			t.Errorf("replies{status=%q} = %v, want %v", status, got, want)
		}
	}
	if req, rep := total("gptpu_serve_requests_total"), total("gptpu_serve_replies_total"); req != 5 || rep != req {
		t.Errorf("gptpu_serve_requests_total = %v, Σ gptpu_serve_replies_total = %v, want both 5", req, rep)
	}
	if a, b := total("gptpu_serve_inflight"), total("gptpu_obs_inflight"); a != 0 || b != 0 {
		t.Errorf("gptpu_serve_inflight = %v, gptpu_obs_inflight = %v after every reply, want 0", a, b)
	}
}
