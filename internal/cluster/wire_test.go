package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/server"
	"repro/internal/tensor"
)

// TestFrameVersionMismatch: the wire has one frame layout. A retired v1
// frame and a future v3 frame each draw CodeVersion on their own
// request ID, and the same connection then serves a v2 GEMM — from a
// daemon directly and through the router.
func TestFrameVersionMismatch(t *testing.T) {
	d := startDaemon(t, server.Config{Devices: 1})
	r := startRouter(t, Config{}, d)
	rng := rand.New(rand.NewSource(23))
	a := tensor.RandUniform(rng, 6, 6, -1, 1)
	b := tensor.RandUniform(rng, 6, 6, -1, 1)
	want := blas.NaiveGemm(a, b)
	payload := gemmPayload(a, b)

	for _, target := range []struct{ name, addr string }{{"daemon", d.Addr()}, {"router", r.Addr()}} {
		for _, ver := range []byte{1, server.Version + 1} {
			t.Run(fmt.Sprintf("%s/v%d", target.name, ver), func(t *testing.T) {
				conn, err := net.Dial("tcp", target.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))

				if _, err := conn.Write(forgeFrame(ver, server.MsgGemm, 41, payload)); err != nil {
					t.Fatal(err)
				}
				f, err := server.DecodeFrame(conn, 0)
				if err != nil {
					t.Fatal(err)
				}
				if f.Type != server.MsgError || f.ReqID != 41 || len(f.Payload) < 2 ||
					binary.BigEndian.Uint16(f.Payload) != server.CodeVersion {
					t.Fatalf("v%d frame answered with %s on req %d, want CodeVersion on req 41", ver, f.Type, f.ReqID)
				}

				if err := server.EncodeFrame(conn, &server.Frame{Type: server.MsgGemm, ReqID: 42, Payload: payload}); err != nil {
					t.Fatal(err)
				}
				if f, err = server.DecodeFrame(conn, 0); err != nil {
					t.Fatal(err)
				}
				if f.Type != server.MsgResult || f.ReqID != 42 {
					t.Fatalf("v2 GEMM answered with %s on req %d", f.Type, f.ReqID)
				}
				got, err := decodeResult(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if e := tensor.RMSE(want, got); e > 0.05 {
					t.Fatalf("v2 GEMM after the mismatch: RMSE %v", e)
				}
			})
		}
	}
}

// TestMalformedPongStrikes: a member whose Pong lacks the health
// payload fails its probe — a strike, then dead — instead of passing
// as alive.
func TestMalformedPongStrikes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
					if server.EncodeFrame(conn, &server.Frame{Type: server.MsgPong, ReqID: f.ReqID}) != nil {
						return
					}
				}
			}()
		}
	}()
	r := startRouter(t, Config{Members: []string{ln.Addr().String()}})
	for i, want := range []string{"suspect", "dead"} {
		r.ProbeNow()
		if st := r.Snapshot()[0].State; st != want {
			t.Fatalf("after probe %d the member is %s, want %s", i+1, st, want)
		}
	}
}

// forgeFrame hand-builds a frame of any version: the header prefix
// every version shares (magic, version, type, request ID) followed by
// body. server.EncodeFrame only writes the current version.
func forgeFrame(ver byte, t server.MsgType, reqID uint64, body []byte) []byte {
	raw := binary.BigEndian.AppendUint32(nil, uint32(12+len(body)))
	raw = binary.BigEndian.AppendUint16(raw, server.Magic)
	raw = append(raw, ver, byte(t))
	raw = binary.BigEndian.AppendUint64(raw, reqID)
	return append(raw, body...)
}

// gemmPayload encodes a GEMM request payload: no deadline, no flags,
// then A and B as rows, cols and row-major float32 bits.
func gemmPayload(a, b *tensor.Matrix) []byte {
	p := make([]byte, 5)
	for _, m := range []*tensor.Matrix{a, b} {
		p = binary.BigEndian.AppendUint32(p, uint32(m.Rows))
		p = binary.BigEndian.AppendUint32(p, uint32(m.Cols))
		for _, v := range m.Data[:m.Rows*m.Cols] {
			p = binary.BigEndian.AppendUint32(p, math.Float32bits(v))
		}
	}
	return p
}

// decodeResult decodes a MsgResult payload: one matrix.
func decodeResult(p []byte) (*tensor.Matrix, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("result payload of %d bytes", len(p))
	}
	rows, cols := int(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint32(p[4:]))
	if len(p) != 8+4*rows*cols {
		return nil, fmt.Errorf("%dx%d result in %d bytes", rows, cols, len(p))
	}
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float32frombits(binary.BigEndian.Uint32(p[8+4*i:]))
	}
	return m, nil
}
