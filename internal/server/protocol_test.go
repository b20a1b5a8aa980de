package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{Version: Version, Type: MsgResult, ReqID: 0xDEADBEEFCAFE, TraceID: 0xFEEDC0DE, Payload: []byte{1, 2, 3}}
	if err := EncodeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ReqID != in.ReqID || out.TraceID != in.TraceID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// forgeFrame hand-builds a frame of any version: the header prefix
// every version shares (magic, version, type, request ID) followed by
// body. EncodeFrame only writes Version.
func forgeFrame(ver byte, t MsgType, reqID uint64, body []byte) []byte {
	raw := binary.BigEndian.AppendUint32(nil, uint32(idLen+len(body)))
	raw = binary.BigEndian.AppendUint16(raw, Magic)
	raw = append(raw, ver, byte(t))
	raw = binary.BigEndian.AppendUint64(raw, reqID)
	return append(raw, body...)
}

// TestLegacyFrameRoundTrip: a retired v1 frame (no trace field) no
// longer decodes as a request. DecodeFrame reports ErrVersionMismatch
// with the request ID still readable, consumes exactly that frame, and
// the v2 frame behind it decodes intact.
func TestLegacyFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(forgeFrame(1, MsgPing, 99, nil))
	if err := EncodeFrame(&buf, &Frame{Type: MsgPing, ReqID: 100, TraceID: 0xABCD}); err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(&buf, 0)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("v1 frame: want ErrVersionMismatch, got %v", err)
	}
	if f == nil || f.Version != 1 || f.ReqID != 99 {
		t.Fatalf("v1 frame must surface its version and request ID, got %+v", f)
	}
	f, err = DecodeFrame(&buf, 0)
	if err != nil {
		t.Fatalf("v2 frame after a v1 frame: %v", err)
	}
	if f.Version != Version || f.Type != MsgPing || f.ReqID != 100 || f.TraceID != 0xABCD {
		t.Fatalf("v2 frame after a v1 frame: %+v", f)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left unread", buf.Len())
	}
}

func TestOpRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandUniform(rng, 5, 7, -1, 1)
	b := tensor.RandUniform(rng, 7, 2, -1, 1)
	for _, tc := range []*OpRequest{
		{Op: MsgGemm, DeadlineMillis: 250, Flags: FlagNoBatch, A: a, B: b},
		{Op: MsgMean, A: a},
	} {
		got, err := decodeOpRequest(tc.Op, encodeOpRequest(tc).Data)
		if err != nil {
			t.Fatal(err)
		}
		if got.DeadlineMillis != tc.DeadlineMillis || got.Flags != tc.Flags {
			t.Fatalf("header mismatch: %+v vs %+v", got, tc)
		}
		if !bytes.Equal(matrixBits(got.A), matrixBits(tc.A)) {
			t.Fatal("matrix A did not round trip")
		}
		if (got.B == nil) != (tc.B == nil) {
			t.Fatal("matrix B presence mismatch")
		}
		if tc.B != nil && !bytes.Equal(matrixBits(got.B), matrixBits(tc.B)) {
			t.Fatal("matrix B did not round trip")
		}
	}
}

func matrixBits(m *tensor.Matrix) []byte { return appendMatrix(nil, m) }

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		_ = EncodeFrame(&buf, &Frame{Version: Version, Type: MsgPing, ReqID: 7})
		return buf.Bytes()
	}()

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, err := DecodeFrame(bytes.NewReader(good[:cut]), 0); err == nil {
				t.Fatalf("truncation at %d decoded", cut)
			}
		}
	})
	t.Run("oversized-claim", func(t *testing.T) {
		big := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(big[0:], MaxFrameLen+1)
		if _, err := DecodeFrame(bytes.NewReader(big), 0); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("oversized claim: want ErrBadRequest, got %v", err)
		}
	})
	t.Run("undersized-claim", func(t *testing.T) {
		small := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(small[0:], idLen-1)
		if _, err := DecodeFrame(bytes.NewReader(small), 0); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("undersized claim: want ErrBadRequest, got %v", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4], bad[5] = 0xFF, 0xFF
		if _, err := DecodeFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("bad magic: want ErrBadRequest, got %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		v3 := append([]byte(nil), good...)
		v3[6] = Version + 1
		f, err := DecodeFrame(bytes.NewReader(v3), 0)
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("wrong version: want ErrVersionMismatch, got %v", err)
		}
		if f == nil || f.ReqID != 7 {
			t.Fatal("version mismatch must still surface the request ID for the error reply")
		}
	})
	t.Run("v2-truncated-header", func(t *testing.T) {
		// A frame claiming version 2 whose length covers only the shared
		// header prefix (12 <= n < 20) must draw a typed error, not a
		// panic or a phantom trace ID read past the buffer.
		for n := idLen; n < headerLen; n++ {
			raw := make([]byte, 4+n)
			binary.BigEndian.PutUint32(raw[0:], uint32(n))
			binary.BigEndian.PutUint16(raw[4:], Magic)
			raw[6] = Version
			raw[7] = byte(MsgPing)
			if _, err := DecodeFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("v2 length %d: want ErrBadRequest, got %v", n, err)
			}
		}
	})
}

func TestDecodeMatrixRejectsOverclaimedDims(t *testing.T) {
	// A matrix header claiming huge dimensions with no data must be
	// rejected before allocating rows*cols anything.
	buf := make([]byte, 8)
	binary.BigEndian.PutUint32(buf[0:], MaxDim)
	binary.BigEndian.PutUint32(buf[4:], MaxDim)
	if _, _, err := decodeMatrix(buf); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("overclaimed dims: want ErrBadRequest, got %v", err)
	}
}

// TestErrorCodeRoundTrip: every typed class survives the wire, and its
// class text appears exactly once whether the sender put a bare detail,
// the wrapped error's own text (what the daemon sends), or a relayed
// client-side error (what the router sends) on the wire.
func TestErrorCodeRoundTrip(t *testing.T) {
	// The status labels are runbook-visible as replies{status=…}.
	labels := map[error]string{ErrOverloaded: "overloaded", ErrDeadlineExceeded: "deadline",
		ErrBadRequest: "bad_request", ErrInternal: "internal", ErrShuttingDown: "shutting_down",
		ErrVersionMismatch: "version", ErrTransient: "transient"}
	for _, e := range []error{ErrOverloaded, ErrDeadlineExceeded, ErrBadRequest,
		ErrInternal, ErrShuttingDown, ErrVersionMismatch, ErrTransient} {
		if got := ErrStatus(e); got != labels[e] {
			t.Fatalf("ErrStatus(%v) = %q, want %q", e, got, labels[e])
		}
		code := classOf(e).code
		sent := fmt.Errorf("%w: ctx", e)
		relayed := errFromCode(code, sent.Error())
		for _, msg := range []string{"", "ctx", e.Error(), sent.Error(), relayed.Error()} {
			back := errFromCode(code, msg)
			if !errors.Is(back, e) {
				t.Fatalf("code %d, msg %q did not round trip to %v (got %v)", code, msg, e, back)
			}
			if n := strings.Count(back.Error(), e.Error()); n != 1 {
				t.Fatalf("code %d, msg %q: class text %d times in %q, want once", code, msg, n, back)
			}
		}
		if relayed.Error() != sent.Error() {
			t.Fatalf("relayed %q, want %q", relayed, sent)
		}
	}
}

func TestDecodeFrameShortRead(t *testing.T) {
	if _, err := DecodeFrame(io.LimitReader(bytes.NewReader(nil), 0), 0); err == nil {
		t.Fatal("empty stream decoded")
	}
}

// TestMatrixCodecStridedAndAppend covers the appendMatrix fast path's
// two non-trivial cases: encoding a non-compact view (per-row stores
// into the reserved region) and appending after existing bytes
// (offset arithmetic, in-place growth reuse).
func TestMatrixCodecStridedAndAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	full := tensor.RandUniform(rng, 8, 10, -1, 1)
	view := full.View(2, 3, 4, 5)
	if view.IsCompact() {
		t.Fatal("test needs a strided view")
	}

	prefix := []byte{0xAB, 0xCD}
	enc := appendMatrix(append([]byte(nil), prefix...), view)
	if !bytes.Equal(enc[:2], prefix) {
		t.Fatal("appendMatrix clobbered existing bytes")
	}
	got, rest, err := decodeMatrix(enc[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got.Rows != view.Rows || got.Cols != view.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, view.Rows, view.Cols)
	}
	for r := 0; r < view.Rows; r++ {
		for c := 0; c < view.Cols; c++ {
			if got.At(r, c) != view.At(r, c) {
				t.Fatalf("[%d][%d] = %v want %v", r, c, got.At(r, c), view.At(r, c))
			}
		}
	}

	// Pre-grown destination: the append must reuse capacity in place.
	dst := make([]byte, 0, 8+view.Elems()*4)
	out := appendMatrix(dst, view)
	if &out[0] != &dst[:1][0] {
		t.Fatal("appendMatrix reallocated despite sufficient capacity")
	}
}

// BenchmarkMatrixCodec measures the serve path's matrix frame codec on
// a paper-shaped 256x256 operand (256 KiB payload).
func BenchmarkMatrixCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := tensor.RandUniform(rng, 256, 256, -1, 1)
	enc := appendMatrix(nil, m)
	buf := make([]byte, 0, len(enc))

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendMatrix(buf[:0], m)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeMatrix(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingConn counts the Write calls that reach a TCP connection and
// the Read calls that return data. It keeps the connection's writev
// (net.Buffers hands a TCP connection all of its buffers in one call),
// so a frame that leaves whole makes no Write call at all.
type countingConn struct {
	*net.TCPConn
	writes, reads atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(b)
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.TCPConn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestOneWritePerFrame: a client request and a front-door reply each
// reach the socket as one writev, never split into a header write and
// a payload write, whatever their size (an 8 KiB request is twice a
// default bufio buffer, 768 KiB route_mixed's largest frame); an 8 KiB
// frame arrives in one Read. The peer echoes each request through the
// reader and the ConnWriter of a front-door connection.
func TestOneWritePerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer := make(chan *countingConn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(peer)
			return
		}
		sc := &countingConn{TCPConn: conn.(*net.TCPConn)}
		peer <- sc
		fr := newConnReader(sc)
		w := &ConnWriter{fw: frameWriter{w: sc}}
		for {
			f, err := fr.Next()
			if err != nil {
				sc.Close()
				return
			}
			w.Reply(f.ReqID, f.TraceID, MsgResult, f.Payload)
			f.Release()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{TCPConn: conn.(*net.TCPConn)}
	cli := newClient(cc, RetryPolicy{})
	defer cli.Close()
	sc, ok := <-peer
	if !ok {
		t.Fatal("accept failed")
	}
	for _, size := range []int{8 << 10, 768 << 10} {
		payload := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(payload)
		for _, c := range []*countingConn{cc, sc} {
			c.writes.Store(0)
			c.reads.Store(0)
		}
		f, err := cli.Forward(MsgGemm, payload, 9)
		if err != nil {
			t.Fatalf("%d B: %v", size, err)
		}
		if !bytes.Equal(f.Payload, payload) || f.TraceID != 9 {
			t.Fatalf("%d B: echo differs", size)
		}
		f.Release()
		if w := cc.writes.Load(); w != 0 {
			t.Errorf("%d B request: %d Write calls, want one writev", size, w)
		}
		if w := sc.writes.Load(); w != 0 {
			t.Errorf("%d B reply: %d Write calls, want one writev", size, w)
		}
		if size > 8<<10 {
			continue
		}
		if r := sc.reads.Load(); r != 1 {
			t.Errorf("%d B request: %d reads, want 1", size, r)
		}
		if r := cc.reads.Load(); r != 1 {
			t.Errorf("%d B reply: %d reads, want 1", size, r)
		}
	}
}
