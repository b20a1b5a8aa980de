package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Serve characterizes the network serving layer: N concurrent clients
// each keep a pipeline of small same-shape GEMM requests in flight
// (the model-serving pattern — many callers sharing one weight
// matrix) against an in-process gptpu-serve daemon, once with the
// micro-batcher enabled and once with it disabled. The batched
// configuration should win on throughput because coalescing
// compatible requests amortizes the per-submission costs (weight
// quantization, derived conv layout, one plan/submit/collect round)
// across every rider, exactly the effect the paper's batched tpuGemm
// exploits on device. Clients pipeline requests (pipeDepth in flight
// each) so the batcher's early cap-flush, not the coalescing window,
// sets the pace — a sequential closed-loop client would instead pay
// the window as pure added latency.
func Serve(o Opts) *Report {
	rep := &Report{
		ID:    "serve",
		Title: "Serving layer: micro-batched vs request-per-submit GEMM throughput",
		Header: []string{"mode", "clients", "reqs", "size", "wall", "RPS",
			"batches", "avg-batch", "shed", "speedup"},
	}
	// The matrix stays small in both modes on purpose: micro-batching
	// targets the many-tiny-requests regime where per-submission
	// overhead dominates; full mode scales the load, not the operand.
	clients, perClient, n := 8, 32, 32
	if o.Full {
		clients, perClient = 16, 128
	}

	unbatched := runServe(clients, perClient, n, false)
	batched := runServe(clients, perClient, n, true)

	total := clients * perClient
	size := fmt.Sprintf("%dx%d", n, n)
	row := func(mode string, r serveRun, speedup string) {
		avg := "-"
		if r.batches > 0 {
			avg = f2(r.batchedReqs / r.batches)
		}
		rep.AddRow(mode, fmt.Sprintf("%d", clients), fmt.Sprintf("%d", total), size,
			secs(r.wall.Seconds()), f2(float64(total)/r.wall.Seconds()),
			fmt.Sprintf("%.0f", r.batches), avg, fmt.Sprintf("%.0f", r.shed), speedup)
	}
	row("unbatched", unbatched, "1.00x")
	row("batched", batched, f2x(unbatched.wall.Seconds()/batched.wall.Seconds()))

	for _, r := range []struct {
		mode string
		run  serveRun
	}{{"unbatched", unbatched}, {"batched", batched}} {
		if n := r.run.failed.total(); n > 0 {
			rep.AddNote("WARNING: %s run: %d of %d requests failed (%s) — its RPS counts them as served",
				r.mode, n, total, r.run.failed.String())
		}
	}
	if batched.batches == 0 {
		rep.AddNote("WARNING: batched run coalesced nothing — window too short for this host?")
	} else {
		rep.AddNote("batched run coalesced %.0f requests into %.0f submissions (%.2f reqs/flush)",
			batched.batchedReqs, batched.batches, batched.batchedReqs/batched.batches)
	}
	rep.AddNote("workload: %d clients x %d GEMMs (%d in flight each), shared %s weights, over loopback TCP",
		clients, perClient, pipeDepth, size)
	enc, dec := server.CodecThroughput(randMatrix(256, 9), 20*time.Millisecond)
	rep.AddNote("matrix frame codec (256x256 f32): encode %.1fGB/s, decode %.1fGB/s — "+
		"single contiguous grow+put/get per frame (the former per-element append encode paid "+
		"doubling-and-recopy growth on every reply)", enc, dec)
	return rep
}

// pipeDepth is how many requests each bench client keeps in flight on
// its multiplexed connection.
const pipeDepth = 4

// boolInt spreads a remainder across pipeline workers.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serveRun is one measured serving configuration.
type serveRun struct {
	wall        time.Duration
	batches     float64
	batchedReqs float64
	shed        float64
	failed      *failures
}

// failures counts the client calls of a run that did not succeed, by
// typed error class. A bench client never panics on a failed call: a
// daemon that sheds, drains or drops a connection mid-run is a result
// to report, not a reason to lose the run.
type failures struct {
	mu      sync.Mutex
	byClass map[string]int
}

// add records one failed call (or, with n > 1, a client whose dial
// failed and whose n calls were therefore never sent).
func (f *failures) add(err error, n int) {
	class := server.ErrStatus(err)
	if class == "internal" && !errors.Is(err, server.ErrInternal) {
		class = "conn" // no typed reply: dial failure or lost connection
	}
	f.mu.Lock()
	if f.byClass == nil {
		f.byClass = make(map[string]int)
	}
	f.byClass[class] += n
	f.mu.Unlock()
}

func (f *failures) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.byClass {
		n += c
	}
	return n
}

// String lists the classes in name order, e.g. "conn=2 overloaded=5".
func (f *failures) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	classes := make([]string, 0, len(f.byClass))
	for c := range f.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for i, c := range classes {
		classes[i] = fmt.Sprintf("%s=%d", c, f.byClass[c])
	}
	return strings.Join(classes, " ")
}

// runServe boots an in-process daemon, hammers it with concurrent
// clients, and tears it down.
func runServe(clients, perClient, n int, batch bool) serveRun {
	reg := telemetry.NewRegistry()
	window := time.Duration(-1) // disabled
	if batch {
		window = 500 * time.Microsecond
	}
	srv := server.New(server.Config{
		Devices:     2,
		MaxInFlight: 4 * clients,
		BatchWindow: window,
		Metrics:     reg,
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve() }()

	rng := rand.New(rand.NewSource(7))
	weights := tensor.RandUniform(rng, n, n, -1, 1)
	inputs := make([]*tensor.Matrix, clients)
	for i := range inputs {
		inputs[i] = tensor.RandUniform(rng, n, n, -1, 1)
	}

	failed := &failures{}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(a *tensor.Matrix) {
			defer wg.Done()
			c, err := server.Dial(srv.Addr())
			if err != nil {
				failed.add(err, perClient)
				return
			}
			defer c.Close()
			// pipeDepth workers share the multiplexed connection so
			// the client keeps several requests in flight at once.
			var cwg sync.WaitGroup
			for w := 0; w < pipeDepth; w++ {
				cwg.Add(1)
				go func(reqs int) {
					defer cwg.Done()
					for r := 0; r < reqs; r++ {
						if _, err := c.Gemm(a, weights, nil); err != nil {
							failed.add(err, 1)
						}
					}
				}(perClient/pipeDepth + boolInt(w < perClient%pipeDepth))
			}
			cwg.Wait()
		}(inputs[i])
	}
	wg.Wait()
	run := serveRun{wall: time.Since(start), failed: failed}

	for _, snap := range reg.Snapshot() {
		var total float64
		for _, s := range snap.Samples {
			total += s.Value
		}
		switch snap.Name {
		case "gptpu_serve_batches_total":
			run.batches = total
		case "gptpu_serve_batched_requests_total":
			run.batchedReqs = total
		case "gptpu_serve_shed_total":
			run.shed = total
		}
	}

	if err := srv.Shutdown(); err != nil {
		panic(err)
	}
	<-serveDone
	return run
}
