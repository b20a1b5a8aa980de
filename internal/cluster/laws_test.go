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
	r := startRouter(t, Config{Members: []string{scriptedMember(t)}, Obs: obs.New(obs.Config{})})
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
		if got := r.met.replies.With(status).Value(); got != 1 {
			t.Errorf("replies{status=%q} = %v, want 1", status, got)
		}
	}
	if req, rep := familyTotal(reg, "gptpu_cluster_requests_total"), familyTotal(reg, "gptpu_cluster_replies_total"); req != 4 || rep != req {
		t.Errorf("gptpu_cluster_requests_total = %v, Σ gptpu_cluster_replies_total = %v, want both 4", req, rep)
	}
	if a, b := familyTotal(reg, "gptpu_cluster_inflight"), familyTotal(reg, "gptpu_obs_inflight"); a != 0 || b != 0 {
		t.Errorf("gptpu_cluster_inflight = %v, gptpu_obs_inflight = %v after every reply, want 0", a, b)
	}
}
