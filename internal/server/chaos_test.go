package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/fault"
	"repro/internal/tensor"
)

// chaosPlan is the soak's fault plan: transient faults on every device
// plus a rolling kill/revive of two of the four devices, so the pool
// never empties but every failure path runs.
func chaosPlan() *fault.Config {
	return &fault.Config{
		Seed:          1234,
		TransientProb: 0.05,
		Kill: []fault.Event{
			{Device: 1, At: 2 * time.Millisecond},
			{Device: 2, At: 6 * time.Millisecond},
		},
		Revive: []fault.Event{
			{Device: 1, At: 10 * time.Millisecond},
			{Device: 2, At: 14 * time.Millisecond},
		},
		LinkScale: map[int]float64{3: 2},
	}
}

// TestChaosSoak is the acceptance workload: 32 concurrent retrying
// clients against a daemon whose pool is being actively killed,
// revived, degraded and hit with transient faults. Every request must
// come back — a correct result or a typed error, never a hang, never a
// lost request ID — and client retries must stay within their
// configured bounds.
func TestChaosSoak(t *testing.T) {
	srv := startServer(t, Config{
		Devices:     4,
		MaxInFlight: 64,
		Fault:       chaosPlan(),
	})

	const (
		conns     = 32
		rounds    = 4
		maxRetry  = 6
		perClient = rounds * 2 // gemm + add per round
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		answered int
		served   int
		typed    int
		retries  int64
	)
	errs := make(chan error, conns*perClient)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := DialRetry(srv.Addr(), RetryPolicy{
				Max:  maxRetry,
				Base: time.Millisecond,
			})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for r := 0; r < rounds; r++ {
				n := 16 + 8*(ci%3)
				a := tensor.RandUniform(rng, n, n, -1, 1)
				b := tensor.RandUniform(rng, n, n, -1, 1)

				check := func(op string, got *tensor.Matrix, want *tensor.Matrix, err error) {
					mu.Lock()
					answered++
					mu.Unlock()
					switch {
					case err == nil:
						mu.Lock()
						served++
						mu.Unlock()
						if e := tensor.RMSE(want, got); e > 0.05 {
							errs <- fmt.Errorf("conn %d %s RMSE %v", ci, op, e)
						}
					case retryable(err):
						// Retries exhausted on a shed or transient reply:
						// a typed, bounded outcome, not a failure.
						mu.Lock()
						typed++
						mu.Unlock()
					default:
						errs <- fmt.Errorf("conn %d %s: untyped error %w", ci, op, err)
					}
				}
				got, err := c.Gemm(a, b, nil)
				check("gemm", got, blas.NaiveGemm(a, b), err)
				got, err = c.Add(a, b, nil)
				check("add", got, refAdd(a, b), err)
			}
			mu.Lock()
			retries += c.retries.Load()
			mu.Unlock()
		}(ci)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("chaos soak hung: not every request was answered")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if answered != conns*perClient {
		t.Fatalf("answered %d of %d requests — request IDs were lost", answered, conns*perClient)
	}
	if served == 0 {
		t.Fatal("no request was served at all under chaos")
	}
	if max := int64(conns * perClient * maxRetry); retries > max {
		t.Fatalf("clients retried %d times, above the configured bound %d", retries, max)
	}
	st := srv.Runtime().Stats()
	if st.TransientRetries == 0 {
		t.Error("soak injected no transient faults — the chaos plan exercised nothing")
	}
	t.Logf("chaos soak: %d served, %d typed-error, %d client retries, %d runtime transient retries",
		served, typed, retries, st.TransientRetries)
}

// TestChaosDeterministicMakespan replays one serial request sequence
// against two fresh daemons under the same fault plan (GEMMs sent
// NoBatch, so batch composition plays no part) and requires bit-identical virtual
// makespans: the whole fault layer is driven by the virtual clock and
// one seeded PRNG, never by wall time.
func TestChaosDeterministicMakespan(t *testing.T) {
	run := func() (time.Duration, int64) {
		srv := startServer(t, Config{
			Devices:     4,
			MaxInFlight: 64,
			Fault:       chaosPlan(),
		})
		c := dial(t, srv)
		rng := rand.New(rand.NewSource(5))
		for r := 0; r < 6; r++ {
			a := tensor.RandUniform(rng, 48, 48, -1, 1)
			b := tensor.RandUniform(rng, 48, 48, -1, 1)
			if _, err := c.Gemm(a, b, &CallOpts{NoBatch: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Add(a, b, nil); err != nil {
				t.Fatal(err)
			}
		}
		return srv.Runtime().Elapsed(), srv.Runtime().Stats().TransientRetries
	}
	mk1, tr1 := run()
	mk2, tr2 := run()
	if tr1 == 0 {
		t.Fatal("fault plan injected nothing — determinism claim untested")
	}
	if mk1 != mk2 {
		t.Fatalf("virtual makespan diverged across identical runs: %v vs %v", mk1, mk2)
	}
	if tr1 != tr2 {
		t.Fatalf("transient injections diverged: %d vs %d", tr1, tr2)
	}
}

// Regression: a NaN/Inf matrix on the wire used to reach quantization,
// where quant's zero scale poisoned the batch result with NaN for
// every coalesced caller. The daemon must reject it at admission with
// ErrBadRequest and stay healthy.
func TestNonFiniteWireMatrixRejected(t *testing.T) {
	srv := startServer(t, Config{Devices: 1})
	c := dial(t, srv)

	nan := tensor.New(8, 8)
	nan.Data[3] = float32(math.NaN())
	inf := tensor.New(8, 8)
	inf.Data[60] = float32(math.Inf(-1))
	ok := tensor.New(8, 8)

	if _, err := c.Gemm(nan, ok, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN in A: want ErrBadRequest, got %v", err)
	}
	if _, err := c.Add(ok, inf, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Inf in B: want ErrBadRequest, got %v", err)
	}
	if _, err := c.Mean(nan, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("NaN unary: want ErrBadRequest, got %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal("daemon unhealthy after non-finite request:", err)
	}
	// Well-formed work still succeeds on the same connection.
	if _, err := c.Add(ok, ok, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTransientErrorTyped drives the daemon's runtime into guaranteed
// retry-budget exhaustion (every exec faults) and checks the failure
// classifies as the retryable codeTransient on the wire, not an
// internal error.
func TestTransientErrorTyped(t *testing.T) {
	srv := New(Config{
		Devices:     1,
		Fault:       &fault.Config{Seed: 1, TransientProb: 1},
		RetryBudget: 2,
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
	a := tensor.New(8, 8)
	_, err := c.Add(a, a, nil)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
	if !retryable(err) {
		t.Fatal("transient reply must be client-retryable")
	}
}
