package server_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/tensor"
)

// doorTarget is one owner of a server.FrontDoor, booted for one test:
// the daemon itself, or a router in front of a daemon.
type doorTarget struct {
	addr     string
	shard    string // the identity its Pong reports
	shutdown func() error
	abort    func()
	// gate holds the GEMM flushes of the daemon that executes the
	// target's requests; open it unless the test holds one in flight.
	gate *server.FlushGate
}

// doorOwners boots a fresh target per test: the tests drain and abort
// them.
var doorOwners = []struct {
	name  string
	start func(t *testing.T) doorTarget
}{
	{"daemon", func(t *testing.T) doorTarget {
		d, gate := startGatedDaemon(t)
		return doorTarget{addr: d.Addr(), shard: "d0", shutdown: d.Shutdown, abort: d.Abort, gate: gate}
	}},
	{"router", func(t *testing.T) doorTarget {
		d, gate := startGatedDaemon(t)
		r := cluster.New(cluster.Config{Members: []string{d.Addr()}, ShardID: "r0", ProbeInterval: -1})
		if err := r.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- r.Serve() }()
		t.Cleanup(func() {
			gate.Open()
			if err := r.Shutdown(); err != nil {
				t.Errorf("router shutdown: %v", err)
			}
			if err := <-done; err != nil {
				t.Errorf("router serve: %v", err)
			}
		})
		return doorTarget{addr: r.Addr(), shard: "r0", shutdown: r.Shutdown, abort: r.Abort, gate: gate}
	}},
}

// startGatedDaemon boots a daemon (shard "d0") whose micro-batch
// flushes are held until the returned gate opens.
func startGatedDaemon(t *testing.T) (*server.Server, *server.FlushGate) {
	t.Helper()
	d := server.New(server.Config{Devices: 1, ShardID: "d0"})
	gate := server.HoldFlushes(d)
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve() }()
	t.Cleanup(func() {
		gate.Open()
		if err := d.Shutdown(); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("daemon serve: %v", err)
		}
	})
	return d, gate
}

// TestFrontDoor pins the front door's own answers, identically for
// both of its owners: the daemon and the router.
func TestFrontDoor(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, tg doorTarget)
	}{
		{"ping", func(t *testing.T, tg doorTarget) {
			c := dialClient(t, tg.addr)
			h, err := c.Health()
			if err != nil {
				t.Fatal(err)
			}
			if h.ShardID != tg.shard || h.Draining {
				t.Fatalf("Pong reports %+v, want shard %q serving", h, tg.shard)
			}
		}},
		{"unexpected-type", func(t *testing.T, tg doorTarget) {
			tg.gate.Open()
			w := dialWire(t, tg.addr)
			w.send(server.MsgResult, 5, nil)
			w.wantError(5, server.CodeBadRequest)
			w.send(server.MsgGemm, 6, gemmIn.payload)
			w.wantGemm(6)
		}},
		{"drain-refuses", func(t *testing.T, tg doorTarget) {
			w := dialWire(t, tg.addr)
			probe := dialClient(t, tg.addr)
			// One round trip before the drain closes the listener: a
			// connection still in the accept backlog then is reset.
			if _, err := probe.Health(); err != nil {
				t.Fatal(err)
			}
			w.send(server.MsgGemm, 1, gemmIn.payload)
			tg.gate.WaitRunning(t) // request 1 is in flight, held
			drained := make(chan error, 1)
			go func() { drained <- tg.shutdown() }()
			for {
				h, err := probe.Health()
				if err != nil {
					t.Fatal(err)
				}
				if h.Draining {
					break
				}
				time.Sleep(time.Millisecond)
			}
			w.send(server.MsgGemm, 2, gemmIn.payload)
			w.wantError(2, server.CodeShuttingDown)
			tg.gate.Open()
			w.wantGemm(1) // the drain answers what it had accepted
			if err := <-drained; err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			w.wantClosed()
		}},
		{"bad-magic", func(t *testing.T, tg doorTarget) {
			w := dialWire(t, tg.addr)
			raw := binary.BigEndian.AppendUint32(nil, 20)
			raw = binary.BigEndian.AppendUint16(raw, server.Magic^0xffff)
			raw = append(raw, server.Version, byte(server.MsgGemm))
			raw = binary.BigEndian.AppendUint64(raw, 9)
			raw = binary.BigEndian.AppendUint64(raw, 0)
			if _, err := w.c.Write(raw); err != nil {
				t.Fatal(err)
			}
			w.wantError(0, server.CodeBadRequest)
			w.wantClosed()
		}},
		{"abort", func(t *testing.T, tg doorTarget) {
			w := dialWire(t, tg.addr)
			w.send(server.MsgPing, 1, nil)
			if f := w.recv(); f.Type != server.MsgPong || f.ReqID != 1 {
				t.Fatalf("ping answered with %s on req %d", f.Type, f.ReqID)
			}
			tg.abort()
			w.wantClosed()
		}},
	}
	for _, owner := range doorOwners {
		for _, tc := range cases {
			t.Run(owner.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, owner.start(t))
			})
		}
	}
}

// gemmIn is the GEMM every raw-frame test sends: small enough to ride
// the micro-batcher, so the flush gate can hold it.
var gemmIn = func() (g struct {
	payload []byte
	want    *tensor.Matrix
}) {
	rng := rand.New(rand.NewSource(35))
	a := tensor.RandUniform(rng, 6, 6, -1, 1)
	b := tensor.RandUniform(rng, 6, 6, -1, 1)
	g.payload, g.want = server.GemmPayload(a, b), blas.NaiveGemm(a, b)
	return g
}()

func dialClient(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wireConn is a raw connection to a front door: the test writes frames
// of any type and reads every reply frame itself.
type wireConn struct {
	t *testing.T
	c net.Conn
}

func dialWire(t *testing.T, addr string) *wireConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return &wireConn{t: t, c: c}
}

func (w *wireConn) send(typ server.MsgType, reqID uint64, payload []byte) {
	w.t.Helper()
	if err := server.EncodeFrame(w.c, &server.Frame{Type: typ, ReqID: reqID, Payload: payload}); err != nil {
		w.t.Fatal(err)
	}
}

func (w *wireConn) recv() *server.Frame {
	w.t.Helper()
	f, err := server.DecodeFrame(w.c, 0)
	if err != nil {
		w.t.Fatal(err)
	}
	return f
}

// wantError reads one reply: a typed error with code on reqID.
func (w *wireConn) wantError(reqID uint64, code uint16) {
	w.t.Helper()
	f := w.recv()
	if f.Type != server.MsgError || f.ReqID != reqID || len(f.Payload) < 2 ||
		binary.BigEndian.Uint16(f.Payload) != code {
		w.t.Fatalf("answered with %s on req %d (payload %q), want error code %d on req %d",
			f.Type, f.ReqID, f.Payload, code, reqID)
	}
}

// wantGemm reads one reply: gemmIn's result on reqID.
func (w *wireConn) wantGemm(reqID uint64) {
	w.t.Helper()
	f := w.recv()
	if f.Type != server.MsgResult || f.ReqID != reqID {
		w.t.Fatalf("GEMM answered with %s on req %d (payload %q), want a result on req %d",
			f.Type, f.ReqID, f.Payload, reqID)
	}
	got, err := server.DecodeResult(f.Payload)
	if err != nil {
		w.t.Fatal(err)
	}
	if e := tensor.RMSE(gemmIn.want, got); e > 0.05 {
		w.t.Fatalf("GEMM on req %d: RMSE %v", reqID, e)
	}
}

// wantClosed requires the front door to have closed the connection.
func (w *wireConn) wantClosed() {
	w.t.Helper()
	f, err := server.DecodeFrame(w.c, 0)
	if err == nil {
		w.t.Fatalf("connection still open: read %s on req %d", f.Type, f.ReqID)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		w.t.Fatal("connection still open: no close within the deadline")
	}
}
