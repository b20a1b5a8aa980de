package main

import (
	"bytes"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	gptpu "repro"
	"repro/internal/edgetpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// replayBudget is how long one standalone layer call is repeated for
// its p50. The calls take 1 µs to 40 ms, so a fixed budget gives the
// fast ones thousands of samples and the slow ones at least three.
const replayBudget = 40 * time.Millisecond

// timeUS returns the p50 duration of f in µs over replayBudget. Calls
// shorter than 20 µs are timed in batches, so the clock reads do not
// dominate them.
func timeUS(f func()) float64 {
	f() // warm
	t0 := time.Now()
	f()
	batch := 1
	if once := time.Since(t0); once < 20*time.Microsecond {
		batch = int(20*time.Microsecond/(once+1)) + 1
	}
	var us []float64
	for start := time.Now(); len(us) < 3 || time.Since(start) < replayBudget; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		us = append(us, float64(time.Since(t0))/1e3/float64(batch))
	}
	return median(us)
}

// sloMissShare is the share of requests sent that missed the latency
// limit; a failed request is a miss.
func sloMissShare(p *phase, limitMS float64) float64 {
	if p.sent == 0 {
		return 0
	}
	miss := p.failed()
	for _, l := range p.latMS {
		if l > limitMS {
			miss++
		}
	}
	return float64(miss) / float64(p.sent)
}

// backlogGrew reports whether an open-loop step ended with more than
// 3 % of its requests (and more than a connection's worth) still
// outstanding: the system was falling behind the offered rate.
func backlogGrew(p *phase) bool {
	return p.backlog > 32 && float64(p.backlog) > 0.03*float64(p.sent)
}

// stealJiffies reads the CPU time the hypervisor gave to other guests
// so far, and the total, from /proc/stat (0, 0 where there is none).
func stealJiffies() (steal, total float64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 { // "cpu"
			continue
		}
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i <= 8 { // user .. steal; guest time is already inside user
			total += x
		}
		if i == 8 {
			steal = x
		}
	}
	return steal, total
}

// spin is a fixed integer loop that touches no memory: its time is the
// host's speed at the moment of the run, nothing of the program's.
func spin() {
	x := uint64(1)
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

var spinSink uint64

// clientMetrics fills the client.* layer from one phase.
func clientMetrics(v values, p *phase, sloMS float64) {
	v["client.sent"] = float64(p.sent)
	v["client.ok"] = float64(p.ok)
	v["client.failed"] = float64(p.failed())
	if p.sent > 0 {
		v["client.fail_share"] = float64(p.failed()) / float64(p.sent)
	}
	lat := sorted(p.latMS)
	v["client.latency_samples"] = float64(len(lat))
	for name, q := range map[string]float64{"p90": 0.90, "p99": 0.99, "p999": 0.999} {
		if x, ok := tailPercentile(lat, q); ok {
			v["client.latency_"+name+"_ms"] = x
		}
	}
	if sloMS > 0 {
		v["client.slo_miss_share"] = sloMissShare(p, sloMS)
	}
	if lag := sorted(p.lagMS); len(lag) > 0 {
		if x, ok := tailPercentile(lag, 0.99); ok {
			v["client.sched_lag_p99_ms"] = x
		}
		v["client.sched_lag_max_ms"] = lag[len(lag)-1]
	}
}

// counterMetrics turns one phase's counter deltas into the server,
// cluster, core, edgetpu and pcie layer metrics that are counts.
func counterMetrics(v values, c counters, ops float64) {
	if ops == 0 {
		return
	}
	v["server.batches"] = c["batches"]
	if c["batches"] > 0 {
		v["server.avg_batch_size"] = c["batched_reqs"] / c["batches"]
	}
	if c["requests"] > 0 {
		v["server.batched_share"] = c["batched_reqs"] / c["requests"]
	}
	v["server.weight_cache_hits"] = c["weight_hits"]
	v["server.shed"] = c["shed"]

	v["cluster.forwards"] = c["cluster_forwards"]
	v["cluster.failovers"] = c["cluster_failovers"]
	if c["cluster_requests"] > 0 {
		v["cluster.affinity_hit_share"] = c["cluster_aff_hits"] / c["cluster_requests"]
	}

	v["core.instructions_per_op"] = c["execs"] / ops
	v["core.affinity_hit_share"] = share(c["aff_hits"], c["fcfs"])
	v["core.quant_cache_hit_share"] = share(c["q_hits"], c["q_misses"])
	v["core.retries"] = c["retries"]

	v["edgetpu.execs_per_op"] = c["execs"] / ops
	v["edgetpu.h2d_bytes_per_op"] = c["h2d_bytes"] / ops
	v["edgetpu.d2h_bytes_per_op"] = c["d2h_bytes"] / ops
	v["edgetpu.residency_hit_share"] = share(c["res_hits"], c["res_misses"])
	v["edgetpu.evictions"] = c["evictions"]
	v["edgetpu.pool_jobs"] = c["pool_jobs"]
	v["edgetpu.pool_serial_share"] = share(c["pool_serial"], c["pool_jobs"])
	if c["device_s"] > 0 {
		v["edgetpu.virtual_busy_share"] = c["compute_busy_s"] / c["device_s"]
		v["pcie.virtual_link_busy_share"] = c["link_busy_s"] / c["device_s"]
	}
}

// stageP50s returns the p50, in µs, of each stage's total per request
// over the completed traces of the given flight recorders.
func stageP50s(recs ...*obs.Recorder) map[string]float64 {
	byStage := make(map[string][]float64)
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, tr := range r.Dump().Completed {
			sums := make(map[string]float64)
			for _, sp := range tr.Spans {
				sums[sp.Stage] += sp.DurUS
			}
			for stage, us := range sums {
				byStage[stage] = append(byStage[stage], us)
			}
		}
	}
	out := make(map[string]float64, len(byStage))
	for stage, us := range byStage {
		out[stage] = median(us)
	}
	return out
}

// sampleReq is one request the server layer is replayed with, and the
// same op through a private library context.
type sampleReq struct {
	op   server.MsgType
	a, b *tensor.Matrix
	opts *server.CallOpts
	lib  func()
}

// captureFrame points a server.Client at a benchmark-owned listener
// and returns the request frame the client put on the wire for s.
func captureFrame(s sampleReq) (*server.Frame, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	got := make(chan *server.Frame, 1)
	go func() {
		defer close(got)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		f, err := server.DecodeFrame(conn, 0)
		if err != nil {
			return
		}
		got <- f
		// Answer, so the client's Call returns: a typed error is the one
		// reply that can be built without the package's private codec.
		_ = server.EncodeFrame(conn, &server.Frame{Version: f.Version, Type: server.MsgError,
			ReqID: f.ReqID, Payload: server.ErrorPayload(server.ErrInternal)})
	}()
	cli, err := server.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	_, _ = cli.Call(s.op, s.a, s.b, s.opts) // answered with the typed error above
	f, ok := <-got
	if !ok {
		return nil, net.ErrClosed
	}
	return f, nil
}

// serverLayer replays the server package's own work for the sample
// requests against the daemon at addr: frame decode and encode on
// captured frames, exact wire bytes, a ping round trip, and the round
// trip of one request alone minus the same op through the library.
// With several samples each metric is their mean (the mix's per-op
// cost).
func serverLayer(v values, addr string, samples []sampleReq) {
	cli, err := server.Dial(addr)
	if err != nil {
		return
	}
	defer cli.Close()
	n := float64(len(samples))
	var wire bytes.Buffer
	for _, s := range samples {
		req, err := captureFrame(s)
		if err != nil {
			return
		}
		reply, err := cli.Forward(req.Type, req.Payload, 0)
		if err != nil {
			return
		}
		wire.Reset()
		if err := server.EncodeFrame(&wire, req); err != nil {
			return
		}
		raw := append([]byte(nil), wire.Bytes()...)
		v["server.decode_us"] += timeUS(func() {
			f, err := server.DecodeFrame(bytes.NewReader(raw), 0)
			if err == nil {
				_, _ = server.DecodeOpRequest(f.Type, f.Payload) // a captured frame decodes; only the time matters
			}
		}) / n
		v["server.encode_us"] += timeUS(func() {
			wire.Reset()
			_ = server.EncodeFrame(&wire, reply) // into memory: cannot fail below the frame cap
		}) / n
		v["server.wire_bytes_per_op"] += float64(server.WireLen(req)+server.WireLen(reply)) / n
		call := timeUS(func() { _, _ = cli.Call(s.op, s.a, s.b, s.opts) }) // failures show in the phase, not here
		v["server.self_us"] += (call - timeUS(s.lib)) / n
	}
	v["server.ping_rtt_us"] = timeUS(func() { _ = cli.Ping() })
}

// shapeLayers replays the quant and model layers at the workload's
// operand shape.
func shapeLayers(v values, rows, cols int) {
	rng := rand.New(rand.NewSource(1))
	m := uniform01(rng, rows, cols)
	_, p := quant.Quantize(m)
	acc := tensor.NewI32(rows, cols)
	for i := range acc.Data {
		acc.Data[i] = int32(rng.Intn(1 << 20))
	}
	us := timeUS(func() { quant.Quantize(m) })
	v["quant.quantize_us"] = us
	v["quant.mb_per_s"] = float64(m.Bytes()) / us
	v["quant.dequantize_i32_us"] = timeUS(func() { quant.DequantizeI32(acc, p.Scale*p.Scale) })
	v["quant.calibrate_us"] = timeUS(func() { quant.Calibrate(m, quant.MethodScale, nil) })

	var enc []byte
	v["model.encode_us"] = timeUS(func() { enc = model.FromMatrix(m, 128, p).Encode() })
	v["model.decode_us"] = timeUS(func() { _, _ = model.Decode(enc) }) // enc was just produced by Encode
	v["model.bytes_per_op"] = float64(len(enc))
}

// randI8 fills an int8 matrix from rng.
func randI8(rng *rand.Rand, rows, cols int) *tensor.MatrixI8 {
	m := tensor.NewI8(rows, cols)
	for i := range m.Data {
		m.Data[i] = int8(rng.Intn(256) - 128)
	}
	return m
}

// kernelLayers replays the functional kernels standalone at the tile
// shapes the workloads issue: 128x128 (the 512-wide panel of gemm_lib
// besides), 64x64 for the reductions.
func kernelLayers(v values) {
	rng := rand.New(rand.NewSource(2))
	const tile = 128
	in, in2 := randI8(rng, tile, tile), randI8(rng, tile, tile)
	k3 := randI8(rng, 3, 3)
	red := randI8(rng, 64, 64)
	vec := make([]int8, tile)
	copy(vec, in.Row(0))
	fc := make([]int32, tile)
	panelW, panelK := randI8(rng, gemmTileRows, gemmN), randI8(rng, gemmN, gemmN)

	put32 := func(ms []*tensor.MatrixI32) {
		for _, m := range ms {
			tensor.PutI32(m)
		}
	}
	kernels := map[string]func(){
		"conv2d_gemm_512": func() { tensor.PutI32(edgetpu.Conv2DGemm(panelW, panelK)) },
		"conv2d_gemm_128": func() { tensor.PutI32(edgetpu.Conv2DGemm(in, in2)) },
		"conv2d_3x3":      func() { put32(edgetpu.Conv2D(in, []*tensor.MatrixI8{k3}, 1, 1)) },
		"fully_connected": func() { edgetpu.FullyConnectedInto(fc, in, vec) },
		"add":             func() { tensor.PutI32(edgetpu.Add(in, in2)) },
		"sub":             func() { tensor.PutI32(edgetpu.Sub(in, in2)) },
		"mul":             func() { tensor.PutI32(edgetpu.Mul(in, in2)) },
		"tanh":            func() { tensor.PutI8(edgetpu.TanhLUT(in, 11.7)) },
		"relu":            func() { tensor.PutI8(edgetpu.ReLU(in)) },
		"mean":            func() { edgetpu.MeanSum(red) },
		"max":             func() { edgetpu.MaxVal(red) },
		"crop":            func() { tensor.PutI8(edgetpu.Crop(in, 16, 16, 96, 96)) },
		"ext":             func() { tensor.PutI8(edgetpu.Ext(in, 160, 160)) },
	}
	for name, f := range kernels {
		v["edgetpu.kernel_us."+name] = timeUS(f)
	}
	macs := float64(gemmTileRows) * gemmN * gemmN
	v["edgetpu.gmacs_per_s"] = macs / v["edgetpu.kernel_us.conv2d_gemm_512"] / 1e3
}

// coreLayers replays the runtime's fixed costs on private contexts:
// the plan/submit/collect round of a one-tile op, an empty task, and
// the six-op chain at 256x256 as one graph against per-op.
func coreLayers(v values) {
	rng := rand.New(rand.NewSource(3))
	ctx := gptpu.Open(gptpu.Config{Devices: 2})
	defer ctx.Close()
	a8, b8 := ctx.CreateMatrixBuffer(uniform01(rng, 8, 8)), ctx.CreateMatrixBuffer(uniform01(rng, 8, 8))
	op := ctx.NewOp()
	v["core.op_overhead_us"] = timeUS(func() { op.Gemm(a8, b8) })
	v["core.enqueue_wait_us"] = timeUS(func() { _ = ctx.Enqueue(func(*gptpu.Op) {}).Wait() }) // an empty kernel cannot fail

	const n = 256
	a, b, c := uniform01(rng, n, n), uniform01(rng, n, n), uniform01(rng, n, n)
	chain := func(graph bool) (ms, d2h float64) {
		var wall []float64
		for i := 0; i < 5; i++ {
			cx := gptpu.Open(gptpu.Config{Devices: 2})
			ba, bb, bc := cx.CreateMatrixBuffer(a), cx.CreateMatrixBuffer(b), cx.CreateMatrixBuffer(c)
			t0 := time.Now()
			if graph {
				g := cx.NewGraph()
				g.MatMul(ba, bb).Add(bc).Tanh().MulPair(bc).ReLU().Add(bc)
				_ = g.Submit() // a failed chain shows as zero downloaded bytes
			} else {
				o := cx.NewOp()
				m := o.Gemm(ba, bb)
				m = o.Add(cx.CreateMatrixBuffer(m), bc)
				m = o.Tanh(cx.CreateMatrixBuffer(m))
				m = o.Mul(cx.CreateMatrixBuffer(m), bc)
				m = o.ReLU(cx.CreateMatrixBuffer(m))
				o.Add(cx.CreateMatrixBuffer(m), bc)
			}
			wall = append(wall, float64(time.Since(t0))/1e6)
			d2h = runtimeCounters(cx)["d2h_bytes"]
			cx.Close()
		}
		return median(wall), d2h
	}
	v["core.graph_chain_ms"], v["core.graph_d2h_bytes"] = chain(true)
	v["core.perop_chain_ms"], v["core.perop_d2h_bytes"] = chain(false)
}

// telemetryLayers times one registry snapshot and counts its families.
func telemetryLayers(v values, reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	v["telemetry.families"] = float64(len(reg.Snapshot()))
	v["telemetry.snapshot_us"] = timeUS(func() { reg.Snapshot() })
}
