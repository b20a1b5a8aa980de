package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// scriptedMember is a fake daemon whose answer to each operator frame
// is chosen by the first element of the request's A operand: 0 → a
// 1x1 result, 1 → bad request, 2 → overloaded, 3 → deadline. It
// returns the member's address.
func scriptedMember(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	answers := []error{nil, server.ErrBadRequest, server.ErrOverloaded, server.ErrDeadlineExceeded}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := server.DecodeFrame(conn, 0)
					if err != nil {
						return
					}
					reply := &server.Frame{Type: server.MsgResult, ReqID: f.ReqID, TraceID: f.TraceID,
						Payload: binary.BigEndian.AppendUint32([]byte{0, 0, 0, 1, 0, 0, 0, 1}, math.Float32bits(1))}
					// The payload is deadline, flags, A's rows and cols, then A.
					if e := answers[int(math.Float32frombits(binary.BigEndian.Uint32(f.Payload[13:])))]; e != nil {
						reply.Type, reply.Payload = server.MsgError, server.ErrorPayload(fmt.Errorf("%w: scripted", e))
					}
					if server.EncodeFrame(conn, reply) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterRequestsConserved is the router's first conservation law:
// after the router relays an ok, a bad_request, an overloaded and a
// deadline answer, every request counted by
// gptpu_cluster_requests_total has exactly one reply in
// gptpu_cluster_replies_total, and neither the router's in-flight
// gauge nor its flight recorder holds a request.
func TestRouterRequestsConserved(t *testing.T) {
	rec := obs.New(obs.Config{})
	r := startRouter(t, Config{Members: []string{scriptedMember(t)}, Obs: rec})
	c := dialRouter(t, r)

	want := map[float32]error{0: nil, 1: server.ErrBadRequest, 2: server.ErrOverloaded, 3: server.ErrDeadlineExceeded}
	for v, wantErr := range want {
		a := tensor.New(1, 1)
		a.Set(0, 0, v)
		_, err := c.Add(a, tensor.New(1, 1), nil)
		if (wantErr == nil && err != nil) || (wantErr != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("answer %v: got %v, want %v", v, err, wantErr)
		}
	}

	reg := r.Metrics()
	for _, status := range []string{"ok", "bad_request", "overloaded", "deadline"} {
		if got := replies(r).With(status).Value(); got != 1 {
			t.Errorf("replies{status=%q} = %v, want 1", status, got)
		}
	}
	if req, rep := familyTotal(reg, "gptpu_cluster_requests_total"), familyTotal(reg, "gptpu_cluster_replies_total"); req != 4 || rep != req {
		t.Errorf("gptpu_cluster_requests_total = %v, Σ gptpu_cluster_replies_total = %v, want both 4", req, rep)
	}
	if a, n := familyTotal(reg, "gptpu_cluster_inflight"), len(rec.Dump().InFlight); a != 0 || n != 0 {
		t.Errorf("gptpu_cluster_inflight = %v, %d traces in flight after every reply, want 0", a, n)
	}
}

// TestStageHistogramConserved is the router twin of the daemon's law:
// after n traced requests through a router to a traced daemon, each
// front door's prefix_stage_seconds counts one total per reply, and
// each stage's sum is its spans summed over that process's completed
// waterfalls.
func TestStageHistogramConserved(t *testing.T) {
	drec, rrec := obs.New(obs.Config{}), obs.New(obs.Config{})
	d := startDaemon(t, server.Config{Devices: 1, Obs: drec})
	r := startRouter(t, Config{Obs: rrec}, d)
	c := dialRouter(t, r)
	a := tensor.New(4, 4)
	const n = 12
	for i := 0; i < n; i += 3 {
		if _, err := c.Gemm(a, a, nil); err != nil {
			t.Fatalf("gemm: %v", err)
		}
		if _, err := c.Add(a, a, nil); err != nil {
			t.Fatalf("add: %v", err)
		}
		if _, err := c.Gemm(a, tensor.New(3, 5), nil); !errors.Is(err, server.ErrBadRequest) {
			t.Fatalf("mismatched gemm: want ErrBadRequest, got %v", err)
		}
	}
	checkStageHistogram(t, r.Metrics(), "gptpu_cluster", rrec.Dump(), n)
	checkStageHistogram(t, d.Metrics(), "gptpu_serve", drec.Dump(), n)
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
