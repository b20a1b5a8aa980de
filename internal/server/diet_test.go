package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	gptpu "repro"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// allocBytesPerRun reports the bytes the whole process allocates per
// call of f (runtime.MemStats.TotalAlloc delta), after one warm-up call
// has filled the pools. testing.AllocsPerRun counts objects; this
// weighs them.
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

// TestLoopbackGemmDiet pins the per-request diet of the serving path,
// client and daemon together, for one 32x32 GEMM over loopback TCP: a
// 8 KiB request, a 4 KiB reply. What may still be allocated per call is
// the client's result (caller-owned, 4 KiB), the int8 forms the
// Tensorizer derives, and small bookkeeping objects; frames, encode
// buffers, decoded operands, stacked activations and the daemon's
// result all recycle. The parent of this test's commit allocated
// 62-68 KiB and 94 objects per call.
func TestLoopbackGemmDiet(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandUniform(rng, 32, 32, 0, 1)
	b := tensor.RandUniform(rng, 32, 32, 0, 1)
	for _, tc := range []struct {
		name        string
		opts        *CallOpts
		bytes, objs float64
	}{
		{"batched", nil, 24 << 10, 85},
		{"nobatch", &CallOpts{NoBatch: true}, 24 << 10, 85},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startServer(t, Config{Devices: 2})
			c := dial(t, srv)
			call := func() {
				if _, err := c.Gemm(a, b, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			gotBytes := allocBytesPerRun(200, call)
			gotObjs := testing.AllocsPerRun(200, call)
			t.Logf("%s: %.0f B and %.0f objects per call (budgets %.0f, %.0f)", tc.name, gotBytes, gotObjs, tc.bytes, tc.objs)
			if gotBytes > tc.bytes {
				t.Errorf("%.0f bytes per call, budget %.0f — did a frame, operand or result stop recycling?", gotBytes, tc.bytes)
			}
			if gotObjs > tc.objs {
				t.Errorf("%.0f objects per call, budget %.0f", gotObjs, tc.objs)
			}
			// Every reply's socket write is timed where e2e latency no
			// longer sees it.
			if writes, replies := srv.met.replyWrite.Count(), srv.door.replies.With("ok").Value(); float64(writes) != replies {
				t.Errorf("reply write histogram has %d samples for %v replies", writes, replies)
			}
		})
	}
}

// TestRepliesBitIdenticalToLibrary is the functional side of the diet:
// pooled operands and results must not change a single bit. Pipelined
// NoBatch requests with distinct payloads are compared against a
// private library context — a buffer released too early would show up
// as another request's data in a reply.
func TestRepliesBitIdenticalToLibrary(t *testing.T) {
	srv := startServer(t, Config{Devices: 2, MaxInFlight: 256})
	lib := gptpu.Open(gptpu.Config{Devices: 2})
	defer lib.Close()
	rng := rand.New(rand.NewSource(2))
	type req struct {
		op   MsgType
		a, b *tensor.Matrix
		want *tensor.Matrix
	}
	var reqs []req
	for i := 0; i < 24; i++ {
		a := tensor.RandUniform(rng, 32, 32, -1, 1)
		b := tensor.RandUniform(rng, 32, 32, -1, 1)
		op := lib.NewOp()
		ba, bb := lib.CreateMatrixBuffer(a), lib.CreateMatrixBuffer(b)
		switch i % 3 {
		case 0:
			reqs = append(reqs, req{MsgGemm, a, b, op.Gemm(ba, bb)})
		case 1:
			reqs = append(reqs, req{MsgAdd, a, b, op.Add(ba, bb)})
		case 2:
			reqs = append(reqs, req{MsgMul, a, b, op.Mul(ba, bb)})
		}
		if err := op.Err(); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, srv)
	errs := make(chan error, len(reqs))
	for round := 0; round < 4; round++ {
		for i := range reqs {
			go func(r *req) {
				got, err := c.Call(r.op, r.a, r.b, &CallOpts{NoBatch: true})
				if err == nil && !WeightEqual(got, r.want) {
					err = errors.New(r.op.String() + " reply differs from the library result")
				}
				errs <- err
			}(&reqs[i])
		}
		for range reqs {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// refWeightKey is WeightKey as it was first written: FNV-1a from
// hash/fnv over one little-endian uint64 per value.
func refWeightKey(m *tensor.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.Rows)<<32 | uint64(m.Cols))
	for r := 0; r < m.Rows; r++ {
		for _, v := range m.Row(r) {
			put(uint64(math.Float32bits(v)))
		}
	}
	return h.Sum64()
}

// TestWireWeightKey: the router's key over the payload bytes is the
// daemon's key over the decoded weight operand, bit for bit, for every
// operator class (B for binary operators, A for the reductions) and for
// strided operands; and both equal the original hash/fnv definition, so
// placement and the affinity table did not move.
func TestWireWeightKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		op := MsgType(int(MsgGemm) + rng.Intn(int(MsgMax-MsgGemm)+1))
		a := tensor.RandUniform(rng, 1+rng.Intn(40), 1+rng.Intn(40), -8, 8)
		req := &OpRequest{Op: op, DeadlineMillis: uint32(rng.Intn(100)), A: a}
		if !op.unary() {
			parent := tensor.RandUniform(rng, 50, 50, -8, 8)
			req.B = parent.View(rng.Intn(10), rng.Intn(10), 1+rng.Intn(40), 1+rng.Intn(40))
		}
		wb := encodeOpRequest(req)
		got, err := WireWeightKey(op, wb.Data)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeOpRequest(op, wb.Data)
		if err != nil {
			t.Fatal(err)
		}
		weight := dec.B
		if weight == nil {
			weight = dec.A
		}
		if want := WeightKey(weight); got != want {
			t.Fatalf("%s: wire key %#x, decoded key %#x", op, got, want)
		}
		if want := refWeightKey(weight); got != want {
			t.Fatalf("%s: key %#x, hash/fnv reference %#x", op, got, want)
		}
		tensor.Put(wb)
	}
}

// TestWireWeightKeyMalformed: on every truncation of a valid payload,
// on trailing bytes, on zeroed or oversized dimensions and on a
// non-operator type, the in-place parser refuses exactly what the
// decoder refuses, with the same typed error and message.
func TestWireWeightKeyMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.RandUniform(rng, 3, 5, -1, 1)
	b := tensor.RandUniform(rng, 5, 2, -1, 1)
	same := func(op MsgType, payload []byte) {
		t.Helper()
		_, kerr := WireWeightKey(op, payload)
		_, derr := DecodeOpRequest(op, payload)
		if (kerr == nil) != (derr == nil) {
			t.Fatalf("%s, %d bytes: key error %v, decode error %v", op, len(payload), kerr, derr)
		}
		if kerr == nil {
			return
		}
		if !errors.Is(kerr, ErrBadRequest) || kerr.Error() != derr.Error() {
			t.Fatalf("%s, %d bytes: key error %q, decode error %q", op, len(payload), kerr, derr)
		}
	}
	for _, req := range []*OpRequest{{Op: MsgGemm, A: a, B: b}, {Op: MsgMean, A: a}} {
		full := append([]byte(nil), encodeOpRequest(req).Data...)
		for n := 0; n <= len(full); n++ {
			same(req.Op, full[:n])
		}
		same(req.Op, append(append([]byte(nil), full...), 0))
		for _, off := range []int{5, 9} { // rows, cols of A
			for _, dim := range []uint32{0, MaxDim + 1, math.MaxUint32} {
				bad := append([]byte(nil), full...)
				binary.BigEndian.PutUint32(bad[off:], dim)
				same(req.Op, bad)
			}
		}
		same(MsgPing, full)
	}
	// A unary payload under a binary type and the reverse.
	same(MsgGemm, encodeOpRequest(&OpRequest{Op: MsgMean, A: a}).Data)
	same(MsgMean, encodeOpRequest(&OpRequest{Op: MsgGemm, A: a, B: b}).Data)
}

// TestFrameReaderRecycles: the pooled reader decodes what DecodeFrame
// decodes, and a released frame's buffer serves the next frame of its
// size class; Release is idempotent and harmless on caller-owned frames.
func TestFrameReaderRecycles(t *testing.T) {
	var wire bytes.Buffer
	payload := bytes.Repeat([]byte{0xab}, 1000)
	for i := 0; i < 3; i++ {
		if err := EncodeFrame(&wire, &Frame{Type: MsgResult, ReqID: uint64(i), TraceID: 7, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	owned, err := DecodeFrame(bytes.NewReader(wire.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	owned.Release() // caller-owned: a no-op
	if !bytes.Equal(owned.Payload, payload) {
		t.Fatal("Release disturbed a caller-owned frame")
	}
	fr := NewFrameReader(bufio.NewReader(&wire))
	var last *byte
	recycled := false
	for i := 0; i < 3; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.ReqID != uint64(i) || f.TraceID != 7 || f.Type != MsgResult || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("frame %d decoded wrong: %+v", i, f)
		}
		recycled = recycled || &f.Payload[0] == last
		last = &f.Payload[0]
		f.Release()
		f.Release()
		if f.Payload != nil {
			t.Fatal("released frame still exposes its payload")
		}
	}
	if !recycled && !tensor.RaceEnabled {
		t.Error("no released frame buffer was reused by a later frame")
	}
}

// TestCollidingWeightUnderTraffic hammers the one ownership hand-over
// the wire cannot reach on its own: a weight matrix whose key collides
// with a live batch group's. While pipelined clients stream batchable
// GEMMs against W1, forged submissions put a different matrix W2 under
// W1's very key (what a crafted FNV collision would do). Whichever side
// finds the other's group live is refused and served unbatched, still
// owning its operands; whichever opens the group has its matrix kept or
// recycled by the batcher. Every result, on both sides, must equal the
// library's bit for bit (all activations share one absolute maximum, so
// a batched row band equals its solo result). W1's first flush is held
// until W1 calls wait in a pending group and a forged W2 has been
// refused by it, so a collision happens on every run.
func TestCollidingWeightUnderTraffic(t *testing.T) {
	srv := New(Config{Devices: 2, MaxInFlight: 256})
	gate := holdFlushes(srv.bat)
	serveOn(t, srv)
	lib := gptpu.Open(gptpu.Config{Devices: 2})
	defer lib.Close()
	rng := rand.New(rand.NewSource(9))
	const n, k = 24, 40
	w1 := tensor.RandUniform(rng, n, k, -1, 1)
	w2 := tensor.RandUniform(rng, n, k, -1, 1)
	type pair struct{ a, want1, want2 *tensor.Matrix }
	pairs := make([]pair, 16)
	for i := range pairs {
		a := tensor.RandUniform(rng, 2+rng.Intn(6), n, -1, 1)
		a.Data[rng.Intn(len(a.Data))] = 1
		op := lib.NewOp()
		ba := lib.CreateMatrixBuffer(a)
		pairs[i] = pair{a, op.Gemm(ba, lib.CreateMatrixBuffer(w1)), op.Gemm(ba, lib.CreateMatrixBuffer(w2))}
		if err := op.Err(); err != nil {
			t.Fatal(err)
		}
	}
	key := batchKey{n: n, k: k, bhash: WeightKey(w1)}

	const wireWorkers, forgers, rounds = 6, 2, 12
	errs := make(chan error, wireWorkers+forgers)
	var accepted, refused atomic.Int64
	c := dial(t, srv)
	for w := 0; w < wireWorkers; w++ {
		go func(w int) {
			for i := 0; i < rounds*len(pairs); i++ {
				p := &pairs[(i+w)%len(pairs)]
				got, err := c.Gemm(p.a, w1, nil)
				if err == nil && !WeightEqual(got, p.want1) {
					err = errors.New("W1 reply differs from the library result")
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	gate.waitRunning(t)
	for deadline := time.Now().Add(10 * time.Second); srv.bat.pendingCalls() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no W1 call joined the pending group")
		}
	}
	forged := &gemmCall{a: pairs[0].a, arrived: time.Now(), done: make(chan callResult, 1)}
	if srv.bat.submit(key, w2.Clone(), forged) {
		t.Fatal("forged W2 joined W1's pending group")
	}
	refused.Add(1)
	gate.open()
	for f := 0; f < forgers; f++ {
		go func(f int) {
			for i := 0; i < rounds*len(pairs); i++ {
				p := &pairs[(i+f)%len(pairs)]
				call := &gemmCall{a: p.a, arrived: time.Now(), done: make(chan callResult, 1)}
				if !srv.bat.submit(key, w2.Clone(), call) {
					refused.Add(1)
					continue
				}
				accepted.Add(1)
				res := <-call.done
				if res.err == nil && !WeightEqual(res.m, p.want2) {
					res.err = errors.New("forged W2 result differs from the library result")
				}
				if res.err != nil {
					errs <- res.err
					return
				}
			}
			errs <- nil
		}(f)
	}
	for i := 0; i < wireWorkers+forgers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	wire := int64(wireWorkers * rounds * len(pairs))
	unbatched := wire - (int64(srv.met.batchedReqs.Value()) - accepted.Load())
	t.Logf("%d wire requests (%d refused by a W2 group, served unbatched), %d forged accepted, %d forged refused by a W1 group",
		wire, unbatched, accepted.Load(), refused.Load())
	if unbatched == 0 && refused.Load() == 0 {
		t.Error("no collision happened in either direction")
	}
}

// TestReplyIsLast is the ordering oracle: the moment a client holds its
// answer — result, shed or bad request, batched or not — the daemon has
// already sealed the request's trace, counted the reply, recorded its
// latency and given the admission slot back. (The parent of this test's
// commit wrote the reply first; a fast client could then dump the
// recorder or send its next request ahead of the daemon's own
// bookkeeping, which is what made TestBatchedRequestTraced and
// TestFlightDumpConsistencyUnderTraffic flaky.)
func TestReplyIsLast(t *testing.T) {
	rec := obs.New(obs.Config{Capacity: 256})
	srv := startServer(t, Config{Devices: 1, MaxInFlight: 1, Obs: rec})
	c := dial(t, srv)
	rng := rand.New(rand.NewSource(6))
	a := tensor.RandUniform(rng, 8, 8, -1, 1)
	b := tensor.RandUniform(rng, 8, 8, -1, 1)
	bad := tensor.New(3, 5) // inner dimension mismatch: answered before admission
	for i := 1; i <= 60; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = c.Gemm(a, b, nil)
		case 1:
			_, err = c.Gemm(a, b, &CallOpts{NoBatch: true})
		case 2:
			if _, err = c.Gemm(a, bad, nil); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("call %d: want ErrBadRequest, got %v", i, err)
			}
			err = nil
		}
		// With one admission slot, a slot released after the write would
		// shed the next call.
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		d := rec.Dump()
		if d.TotalFinished != uint64(i) || len(d.InFlight) != 0 {
			t.Fatalf("after reply %d: %d traces finished, %d in flight", i, d.TotalFinished, len(d.InFlight))
		}
		if got := srv.met.inflight.Value(); got != 0 {
			t.Fatalf("after reply %d: in-flight gauge %v", i, got)
		}
		replies := srv.door.replies.With("ok").Value() + srv.door.replies.With("bad_request").Value()
		if lat := srv.door.latency.With("gemm").Count(); replies != float64(i) || lat != uint64(i) {
			t.Fatalf("after reply %d: %v replies counted, %d latencies observed", i, replies, lat)
		}
	}
}
