package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecodeFrame drives the wire-protocol frame decoder (and, for
// operator frames, the request payload decoder) with arbitrary bytes.
// Malformed input must produce an error — never a panic and never an
// allocation beyond the frame cap, which is what keeps a byte-flipping
// client from taking the daemon down.
func FuzzDecodeFrame(f *testing.F) {
	// A well-formed GEMM request frame.
	a := tensor.FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 1})
	var good bytes.Buffer
	_ = EncodeFrame(&good, &Frame{Version: Version, Type: MsgGemm, ReqID: 42,
		Payload: encodeOpRequest(&OpRequest{Op: MsgGemm, A: a, B: b}).Data})
	f.Add(good.Bytes())

	// Truncated: the same frame cut mid-payload.
	f.Add(good.Bytes()[:len(good.Bytes())/2])

	// Oversized length claim over an empty body.
	over := make([]byte, 4)
	binary.BigEndian.PutUint32(over, maxFrameLen+1)
	f.Add(over)

	// Length far beyond the payload actually present.
	lying := append([]byte(nil), good.Bytes()...)
	binary.BigEndian.PutUint32(lying[0:], 1<<20)
	f.Add(lying)

	// Wrong protocol version.
	v9 := append([]byte(nil), good.Bytes()...)
	v9[6] = 9
	f.Add(v9)

	// Retired v1 frame (no trace field): a version mismatch that must
	// still surface its request ID.
	f.Add(forgeFrame(1, MsgGemm, 43, encodeOpRequest(&OpRequest{Op: MsgGemm, A: a, B: b}).Data))

	// v2 frame whose length claim covers only the shared header prefix:
	// the trace field is missing and the decoder must reject, not
	// over-read.
	shortV2 := make([]byte, 4+idLen)
	binary.BigEndian.PutUint32(shortV2[0:], idLen)
	binary.BigEndian.PutUint16(shortV2[4:], Magic)
	shortV2[6] = Version
	shortV2[7] = byte(MsgPing)
	f.Add(shortV2)

	// Matrix header claiming maxDim x maxDim with no data.
	huge := make([]byte, 0, 64)
	huge = binary.BigEndian.AppendUint32(huge, 0) // deadline
	huge = append(huge, 0)                        // flags
	huge = binary.BigEndian.AppendUint32(huge, maxDim)
	huge = binary.BigEndian.AppendUint32(huge, maxDim)
	var hf bytes.Buffer
	_ = EncodeFrame(&hf, &Frame{Version: Version, Type: MsgGemm, ReqID: 1, Payload: huge})
	f.Add(hf.Bytes())

	// Bad magic.
	bad := append([]byte(nil), good.Bytes()...)
	bad[4], bad[5] = 'X', 'X'
	f.Add(bad)

	// Non-finite payload values: a well-formed frame whose matrices
	// carry NaN and ±Inf. Decoding must survive; the server's admission
	// check (not the decoder) is what rejects these.
	nf := tensor.FromSlice(2, 2, []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1})
	var nfb bytes.Buffer
	_ = EncodeFrame(&nfb, &Frame{Version: Version, Type: MsgAdd, ReqID: 7,
		Payload: encodeOpRequest(&OpRequest{Op: MsgAdd, A: nf, B: nf}).Data})
	f.Add(nfb.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// A small cap keeps the fuzzer from legitimately allocating
		// 64 MiB frames; the cap path itself is under test too.
		const cap = 1 << 16
		fr, err := DecodeFrame(bytes.NewReader(data), cap)
		if err != nil {
			if fr == nil {
				return
			}
			// Version mismatch intentionally surfaces the frame.
		}
		if fr == nil {
			t.Fatal("nil frame without error")
		}
		if len(fr.Payload) > cap {
			t.Fatalf("decoder over-allocated: %d byte payload above cap", len(fr.Payload))
		}
		if fr.Type.isOp() {
			req, err := DecodeOpRequest(fr.Type, fr.Payload)
			if err != nil {
				return
			}
			// A decoded request must be internally consistent.
			if req.A == nil || req.A.Elems() == 0 {
				t.Fatal("decoded request with empty matrix A")
			}
			if fr.Type.operator().Arity() == 2 && req.B == nil {
				t.Fatal("decoded binary request without matrix B")
			}
		}
	})
}
