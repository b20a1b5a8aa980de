package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	gptpu "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tensor"
)

// allocBytesPerRun reports the bytes the whole process allocates per
// call of f (runtime.MemStats.TotalAlloc delta), after one warm-up call
// has filled the pools.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRoutedAddDiet pins the copy diet where cost per byte dominates:
// one 256x256 Add through the router to a daemon moves 512 KiB in and
// 256 KiB out, and client, router and daemon together may allocate
// about the client's result (256 KiB, caller-owned) plus the two
// joint-scale int8 operands (128 KiB) per call. The router itself
// materializes nothing: it hashes the weight operand where it lies and
// relays pooled frames. (Pools empty at every second collection, and
// this small heap collects often, so some frames are allocated again;
// the budget leaves room for that.) The parent of this test's commit
// allocated 4.0 MiB per call.
func TestRoutedAddDiet(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	d := startDaemon(t, server.Config{Devices: 2})
	r := startRouter(t, Config{}, d)
	c := dialRouter(t, r)
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandUniform(rng, 256, 256, 0, 1)
	b := tensor.RandUniform(rng, 256, 256, 0, 1)
	call := func() {
		if _, err := c.Add(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 640 << 10
	got := allocBytesPerRun(40, call)
	objs := testing.AllocsPerRun(40, call)
	t.Logf("%.0f KiB and %.0f objects per routed Add (budget %d KiB)", got/1024, objs, budget>>10)
	if got > budget {
		t.Errorf("%.0f KiB per routed Add, budget %d KiB — is the router decoding again, or a frame not recycling?", got/1024, budget>>10)
	}
}

// hammerReq is one request of the ownership hammer and the library
// result its reply must equal bit for bit.
type hammerReq struct {
	op   server.MsgType
	a, b *tensor.Matrix
	opts *server.CallOpts
	want *tensor.Matrix
}

// TestPoolOwnershipHammer drives every recycled buffer of the request
// path at once, under the race detector in `make race`: pipelined
// clients with distinct payloads through the router to two daemons,
// batched and NoBatch GEMMs beside Add, Mul, Conv2D and Mean, while one
// daemon answers a share of its requests with a transient fault so the
// router resends the same pooled payload to the other. Every reply must
// equal the result of a private library context bit for bit: a frame,
// operand, stacked batch or result handed back to a pool while someone
// still reads it shows up here as a wrong answer, not as a crash.
//
// Batched GEMMs are bit-identical to their solo results because every
// activation matrix has the same absolute maximum (one element is set
// to 1): the stacked batch then quantizes with each rider's own scale,
// whoever it shares a flush with.
func TestPoolOwnershipHammer(t *testing.T) {
	// The flaky daemon is booted by hand: under a fault plan its drain
	// reports again the injected task failures it already answered as
	// typed replies, which startDaemon's cleanup would count as an error.
	flaky := server.New(server.Config{Devices: 2, MaxInFlight: 256, ShardID: "flaky",
		Fault: &fault.Config{Seed: 7, TransientProb: 0.3}, RetryBudget: 1})
	if err := flaky.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	flakyDone := make(chan error, 1)
	go func() { flakyDone <- flaky.Serve() }()
	t.Cleanup(func() {
		_ = flaky.Shutdown()
		if err := <-flakyDone; err != nil {
			t.Errorf("flaky daemon serve: %v", err)
		}
	})
	steady := startDaemon(t, server.Config{Devices: 2, MaxInFlight: 256, ShardID: "steady"})
	r := startRouter(t, Config{}, flaky, steady)

	lib := gptpu.Open(gptpu.Config{Devices: 2})
	defer lib.Close()
	rng := rand.New(rand.NewSource(11))
	weights := make([]*tensor.Matrix, 6)
	for i := range weights {
		weights[i] = tensor.RandUniform(rng, 24, 40, -1, 1)
	}
	activation := func(rows, cols int) *tensor.Matrix {
		m := tensor.RandUniform(rng, rows, cols, -1, 1)
		m.Data[rng.Intn(len(m.Data))] = 1
		return m
	}
	const clients, perClient = 4, 18
	reqs := make([][]hammerReq, clients)
	for ci := range reqs {
		for i := 0; i < perClient; i++ {
			var q hammerReq
			op := lib.NewOp()
			switch i % 6 {
			case 0, 1: // batchable: shared weights, shapes that are no pool capacity
				q = hammerReq{op: server.MsgGemm, a: activation(3+rng.Intn(6), 24), b: weights[rng.Intn(len(weights))]}
			case 2:
				q = hammerReq{op: server.MsgGemm, a: activation(32, 24), b: weights[rng.Intn(len(weights))],
					opts: &server.CallOpts{NoBatch: true}}
			case 3:
				q = hammerReq{op: server.MsgAdd, a: activation(64, 64), b: activation(64, 64)}
			case 4:
				q = hammerReq{op: server.MsgConv2D, a: activation(40, 50), b: activation(3, 3)}
			case 5:
				q = hammerReq{op: server.MsgMean, a: activation(32, 32)}
			}
			ba := lib.CreateMatrixBuffer(q.a)
			switch q.op {
			case server.MsgGemm:
				q.want = op.Gemm(ba, lib.CreateMatrixBuffer(q.b))
			case server.MsgAdd:
				q.want = op.Add(ba, lib.CreateMatrixBuffer(q.b))
			case server.MsgConv2D:
				q.want = op.Conv2D(ba, lib.CreateMatrixBuffer(q.b))
			case server.MsgMean:
				q.want = tensor.FromSlice(1, 1, []float32{op.Mean(ba)})
			}
			if err := op.Err(); err != nil {
				t.Fatal(err)
			}
			reqs[ci] = append(reqs[ci], q)
		}
	}

	const rounds, pipeline = 6, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*pipeline)
	for ci := 0; ci < clients; ci++ {
		c := dialRouter(t, r)
		for p := 0; p < pipeline; p++ {
			wg.Add(1)
			go func(ci, p int) {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					for i := p; i < perClient; i += pipeline {
						q := &reqs[ci][i]
						got, err := c.Call(q.op, q.a, q.b, q.opts)
						if err == nil && !server.WeightEqual(got, q.want) {
							err = errors.New("reply differs from the library result")
						}
						if err != nil {
							errs <- fmt.Errorf("client %d request %d (%s) round %d: %w", ci, i, q.op, round, err)
							return
						}
					}
				}
			}(ci, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	resends := familyTotal(r.Metrics(), "gptpu_cluster_failovers_total")
	batches := familyTotal(flaky.Metrics(), "gptpu_serve_batches_total") +
		familyTotal(steady.Metrics(), "gptpu_serve_batches_total")
	if resends == 0 {
		t.Error("no request was failed over: the resend of a pooled payload went unexercised")
	}
	if batches == 0 {
		t.Error("no micro-batch was flushed: the stacked-batch buffers went unexercised")
	}
	t.Logf("%d requests, %.0f failover resends, %.0f micro-batches", clients*perClient*rounds, resends, batches)
}

// TestRouterReplyIsLast: the router-side twin of the daemon's ordering
// oracle. The moment a client holds a routed answer — a result or a
// typed refusal — the router has sealed the request's trace, counted the
// reply and dropped it from the in-flight gauge, and the daemon behind
// it has done the same.
func TestRouterReplyIsLast(t *testing.T) {
	drec, rrec := obs.New(obs.Config{Capacity: 256}), obs.New(obs.Config{Capacity: 256})
	d := startDaemon(t, server.Config{Devices: 1, Obs: drec})
	r := startRouter(t, Config{Obs: rrec}, d)
	c := dialRouter(t, r)
	rng := rand.New(rand.NewSource(8))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	bad := tensor.New(3, 5) // inner dimension mismatch: the daemon refuses it
	for i := 1; i <= 40; i++ {
		if i%4 == 0 {
			if _, err := c.Gemm(a, bad, nil); !errors.Is(err, server.ErrBadRequest) {
				t.Fatalf("call %d: want ErrBadRequest, got %v", i, err)
			}
		} else if _, err := c.Gemm(a, b, &server.CallOpts{NoBatch: i%2 == 0}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		for name, rec := range map[string]*obs.Recorder{"router": rrec, "daemon": drec} {
			if dump := rec.Dump(); dump.TotalFinished != uint64(i) || len(dump.InFlight) != 0 {
				t.Fatalf("after reply %d: %s has %d traces finished, %d in flight", i, name, dump.TotalFinished, len(dump.InFlight))
			}
		}
		if got := r.met.inflight.Value(); got != 0 {
			t.Fatalf("after reply %d: router in-flight gauge %v", i, got)
		}
		if got := replies(r).With("ok").Value() + replies(r).With("bad_request").Value(); got != float64(i) {
			t.Fatalf("after reply %d: router counted %v replies", i, got)
		}
	}
}
