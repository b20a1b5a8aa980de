// Package server is the GPTPU network serving layer: a stdlib-only
// TCP daemon (cmd/gptpu-serve) that exposes the OpenCtpu operator set
// — GEMM, conv2D, the pair-wise operators, mean/max — over a small
// length-prefixed binary wire protocol, multiplexing many concurrent
// client connections onto one shared runtime context.
//
// The paper's OpenCtpu front-end (section 5) is modeled on
// accelerator-as-a-service host APIs; this package supplies the
// service half the single-process CLI lacks. Three mechanisms carry
// the serving semantics:
//
//   - Admission control: in-flight requests are bounded; requests
//     beyond the bound are shed immediately with a typed overloaded
//     reply instead of queueing unboundedly (no hangs). Clients may
//     attach a deadline, which the server honors before dispatch.
//
//   - Micro-batching: compatible small GEMM requests (same inner
//     dimensions, byte-identical weight matrix) coalesce by occupancy,
//     not by a timer: a request whose key has no batch running
//     dispatches at once, and requests arriving while one runs gather
//     into one stacked multi-segment submission that dispatches when it
//     returns, so serving throughput beats one-request-per-submit
//     without making an idle daemon wait.
//
//   - Graceful shutdown: SIGTERM stops accepting work, drains
//     in-flight requests, then retires the runtime via Context.Close.
//
// Every stage is instrumented through internal/telemetry; the daemon
// mounts the existing HTTP metrics exporter.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"

	"repro/internal/tensor"
)

// Wire format. Every message is one frame:
//
//	offset  size  field
//	0       4     frame length n (big-endian; bytes after this field)
//	4       2     magic 0x4754 ("GT")
//	6       1     protocol version (2)
//	7       1     message type
//	8       8     request ID (echoed verbatim in the reply)
//	16      8     trace ID (echoed verbatim, 0 = none)
//	...     ...   payload
//
// Every wire client speaks this one layout. A frame of any other
// version is answered with CodeVersion on its own request ID — the
// bytes through the request ID sit at the same offsets in every
// version — and the connection keeps serving.
//
// Request payloads (MsgGemm .. MsgMax):
//
//	offset  size  field
//	0       4     deadline in milliseconds (0 = none)
//	4       1     flags (bit 0: never micro-batch this request)
//	5       ...   matrix A (rows u32, cols u32, rows*cols f32 bits)
//	...     ...   matrix B (binary operators only)
//
// Result payload: one matrix in the same encoding (scalar results are
// 1x1). Error payload: u16 code + UTF-8 message.
const (
	// Magic is the two-byte frame preamble ("GT").
	Magic uint16 = 0x4754
	// Version is the one protocol version this build speaks.
	Version byte = 2
	// idLen is the header prefix every version shares: magic, version,
	// type and request ID. headerLen adds the 8-byte trace ID.
	idLen     = 12
	headerLen = idLen + 8
	// MaxFrameLen bounds one frame's post-length bytes (64 MiB, a
	// 2896x2896 float32 matrix pair with headroom). DecodeFrame
	// rejects larger claims before allocating.
	MaxFrameLen = 64 << 20
	// MaxDim bounds one matrix dimension; with the frame cap it also
	// bounds total elements.
	MaxDim = 1 << 20
	// MaxResultElems bounds a result matrix's element count so its
	// reply (8-byte matrix header + 4 bytes/element) always fits one
	// frame. The frame cap bounds *inputs*, but not what they
	// compute: an outer-product GEMM (2^20 x 1 times 1 x 2^20) ships
	// ~8 MiB of operands yet names a 4 TiB result — validateShapes
	// rejects such requests up front instead of letting them allocate.
	MaxResultElems = (MaxFrameLen - headerLen - 8) / 4
)

// MsgType enumerates frame types.
type MsgType byte

const (
	// MsgError is a failure reply: u16 code + message.
	MsgError MsgType = 0
	// MsgResult is a success reply carrying one matrix.
	MsgResult MsgType = 1
	// MsgPing requests a MsgPong (liveness and version probing).
	MsgPing MsgType = 2
	// MsgPong answers MsgPing.
	MsgPong MsgType = 3

	// Operator requests mirror the Table 2 operator set.
	MsgGemm   MsgType = 16 // C = A x B (tpuGemm)
	MsgAdd    MsgType = 17 // C = A + B
	MsgSub    MsgType = 18 // C = A - B
	MsgMul    MsgType = 19 // C = A .* B
	MsgConv2D MsgType = 20 // C = conv2d(A, kernel B)
	MsgMean   MsgType = 21 // 1x1 mean of A
	MsgMax    MsgType = 22 // 1x1 max of A
)

// unary reports whether the operator takes a single input matrix.
func (t MsgType) unary() bool { return t == MsgMean || t == MsgMax }

// isOp reports whether the type is an operator request.
func (t MsgType) isOp() bool { return t >= MsgGemm && t <= MsgMax }

// String names the message type for telemetry labels.
func (t MsgType) String() string {
	switch t {
	case MsgError:
		return "error"
	case MsgResult:
		return "result"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgGemm:
		return "gemm"
	case MsgAdd:
		return "add"
	case MsgSub:
		return "sub"
	case MsgMul:
		return "mul"
	case MsgConv2D:
		return "conv2d"
	case MsgMean:
		return "mean"
	case MsgMax:
		return "max"
	}
	return fmt.Sprintf("type%d", byte(t))
}

// Request flag bits.
const (
	// FlagNoBatch opts one request out of GEMM micro-batching (exact
	// per-request quantization scale at lower throughput).
	FlagNoBatch byte = 1 << 0
)

// Error codes carried by MsgError frames. Each maps to a typed
// sentinel error on the client so callers can errors.Is against the
// failure class.
const (
	CodeOverloaded   uint16 = 1
	CodeDeadline     uint16 = 2
	CodeBadRequest   uint16 = 3
	CodeInternal     uint16 = 4
	CodeShuttingDown uint16 = 5
	CodeVersion      uint16 = 6
	CodeTransient    uint16 = 7
)

// Typed failure classes. ErrOverloaded is the load-shedding reply the
// admission controller sends instead of letting requests hang.
var (
	ErrOverloaded       = errors.New("server: overloaded, request shed")
	ErrDeadlineExceeded = errors.New("server: request deadline exceeded")
	ErrBadRequest       = errors.New("server: malformed request")
	ErrInternal         = errors.New("server: internal error")
	ErrShuttingDown     = errors.New("server: shutting down")
	ErrVersionMismatch  = errors.New("server: protocol version mismatch")
	// ErrTransient marks a request that failed on an injected or
	// recoverable device fault (transient exec fault, retry budget
	// exhausted): the request itself was well-formed and an identical
	// resubmission may succeed, which is what the client's retry
	// policy keys on.
	ErrTransient = errors.New("server: transient device fault, retry")
)

// errClass is one failure class: its wire code, the typed sentinel a
// client errors.Is against, and the status label of the
// replies{status=…} counters (the runbook reads those labels).
type errClass struct {
	code   uint16
	err    error
	status string
}

// errClasses is the one table of failure classes. The internal class
// comes last: it is also the class of an unknown code and of an error
// that wraps no sentinel.
var errClasses = [...]errClass{
	{CodeOverloaded, ErrOverloaded, "overloaded"},
	{CodeDeadline, ErrDeadlineExceeded, "deadline"},
	{CodeBadRequest, ErrBadRequest, "bad_request"},
	{CodeShuttingDown, ErrShuttingDown, "shutting_down"},
	{CodeVersion, ErrVersionMismatch, "version"},
	{CodeTransient, ErrTransient, "transient"},
	{CodeInternal, ErrInternal, "internal"},
}

// classOfCode returns the class a wire code names.
func classOfCode(code uint16) errClass {
	for _, c := range errClasses {
		if c.code == code {
			return c
		}
	}
	return errClasses[len(errClasses)-1]
}

// classOf returns the class of the first sentinel err wraps.
func classOf(err error) errClass {
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			return c
		}
	}
	return errClasses[len(errClasses)-1]
}

// errFromCode converts a wire error code + message into a typed error.
// Senders put err.Error() on the wire, which already begins with the
// class text of the sentinel the code names (and a relaying router
// forwards a client-side error that begins with it too), so leading
// copies are stripped before the sentinel is wrapped again: the class
// text reads once however many hops the error crossed.
func errFromCode(code uint16, msg string) error {
	base := classOfCode(code).err
	class := base.Error()
	for msg == class || strings.HasPrefix(msg, class+": ") {
		msg = strings.TrimPrefix(msg[len(class):], ": ")
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// Frame is one wire message. Version is the version byte a decoded
// frame arrived with; EncodeFrame always writes Version.
type Frame struct {
	Version byte
	Type    MsgType
	ReqID   uint64
	TraceID uint64
	Payload []byte

	// buf is the recycled buffer Payload points into, nil for frames
	// the caller owns outright (DecodeFrame, literals).
	buf *tensor.Mat[byte]
}

// Release returns a pooled frame's buffer for reuse; Payload is invalid
// afterwards. Only frames from a FrameReader or Client.Forward are
// pooled — on any other frame, and on a second call, Release does
// nothing, and a pooled frame that is never released is simply
// collected. The payload's last reader calls it: the daemon once the
// operands are decoded, the router once the last forward attempt and
// the reply write are done, the client once the result is decoded.
func (f *Frame) Release() {
	if f == nil || f.buf == nil {
		return
	}
	tensor.Put(f.buf)
	f.buf, f.Payload = nil, nil
}

// EncodeFrame writes f to w in wire format, header and payload in two
// writes; a connection writes each frame in one (frameWriter).
func EncodeFrame(w io.Writer, f *Frame) error {
	if err := checkPayload(f); err != nil {
		return err
	}
	// The header goes through a recycled buffer: a stack array would
	// escape through the io.Writer and cost an allocation per frame.
	hb := tensor.GetForOverwrite[byte](1, 4+headerLen)
	putHeader(hb.Data, f)
	_, err := w.Write(hb.Data)
	tensor.Put(hb)
	if err != nil {
		return err
	}
	_, err = w.Write(f.Payload)
	return err
}

// checkPayload rejects a payload too large for one frame.
func checkPayload(f *Frame) error {
	if len(f.Payload) > MaxFrameLen-headerLen {
		return fmt.Errorf("server: payload %d bytes exceeds frame cap", len(f.Payload))
	}
	return nil
}

// putHeader writes f's length prefix and header, always at Version,
// into the first 4+headerLen bytes of b.
func putHeader(b []byte, f *Frame) {
	binary.BigEndian.PutUint32(b[0:], uint32(headerLen+len(f.Payload)))
	binary.BigEndian.PutUint16(b[4:], Magic)
	b[6] = Version
	b[7] = byte(f.Type)
	binary.BigEndian.PutUint64(b[8:], f.ReqID)
	binary.BigEndian.PutUint64(b[16:], f.TraceID)
}

// newConnReader reads a connection's frames through a 16 KiB buffer:
// one read takes in a whole small frame (an 8 KiB request and its
// header). A larger frame's body is read straight into its own buffer
// once the buffered start is copied out, so a bigger buffer would only
// copy more of every large frame.
func newConnReader(conn io.Reader) *FrameReader {
	return NewFrameReader(bufio.NewReaderSize(conn, 16<<10))
}

// frameWriter writes frames to a connection, header and payload as one
// net.Buffers: on a TCP connection that is one writev, so no frame
// leaves in two write(2) calls and the payload is never copied. Not
// safe for concurrent use.
type frameWriter struct {
	w   io.Writer
	hdr [4 + headerLen]byte
	iov [2][]byte
	vec net.Buffers // WriteTo consumes it: iov keeps the backing array
}

// write sends f in wire format.
func (fw *frameWriter) write(f *Frame) error {
	if err := checkPayload(f); err != nil {
		return err
	}
	putHeader(fw.hdr[:], f)
	fw.iov = [2][]byte{fw.hdr[:], f.Payload}
	fw.vec = fw.iov[:]
	_, err := fw.vec.WriteTo(fw.w)
	return err
}

// DecodeFrame reads one frame of at most max bytes (0 = MaxFrameLen)
// from r, rejecting malformed input with an error (never a panic, never
// an allocation beyond max). A frame of another version is returned
// together with ErrVersionMismatch so the caller can still answer its
// request ID; every other error leaves the stream unusable. The frame
// is freshly allocated and owned by the caller; read loops use a
// FrameReader, whose frames are recycled.
func DecodeFrame(r io.Reader, max uint32) (*Frame, error) {
	var lenBuf [4]byte
	return readFrame(r, lenBuf[:], max, false)
}

// FrameReader decodes the frames of one connection into pooled
// buffers. Each frame it returns — including one returned together
// with ErrVersionMismatch — is valid until its Release; a frame never
// released is collected like any other. Not safe for concurrent use.
type FrameReader struct {
	r      io.Reader
	lenBuf [4]byte
}

// NewFrameReader reads frames of at most MaxFrameLen bytes from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads one frame; errors are DecodeFrame's.
func (fr *FrameReader) Next() (*Frame, error) {
	return readFrame(fr.r, fr.lenBuf[:], MaxFrameLen, true)
}

// readFrame is the one frame decoder: lenBuf is 4 bytes of scratch for
// the length prefix, pooled selects a recycled body buffer.
func readFrame(r io.Reader, lenBuf []byte, max uint32, pooled bool) (*Frame, error) {
	if max == 0 || max > MaxFrameLen {
		max = MaxFrameLen
	}
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if n < idLen {
		return nil, fmt.Errorf("%w: frame length %d below header size", ErrBadRequest, n)
	}
	if n > max {
		return nil, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrBadRequest, n, max)
	}
	var (
		wb  *tensor.Mat[byte]
		buf []byte
	)
	if pooled {
		wb = tensor.GetForOverwrite[byte](1, int(n))
		buf = wb.Data
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		tensor.Put(wb)
		return nil, err
	}
	if got := binary.BigEndian.Uint16(buf[0:]); got != Magic {
		tensor.Put(wb)
		return nil, fmt.Errorf("%w: bad magic %#04x", ErrBadRequest, got)
	}
	f := &Frame{
		Version: buf[2],
		Type:    MsgType(buf[3]),
		ReqID:   binary.BigEndian.Uint64(buf[4:]),
		Payload: buf[idLen:],
		buf:     wb,
	}
	if f.Version != Version {
		return f, fmt.Errorf("%w: frame version %d, want %d", ErrVersionMismatch, f.Version, Version)
	}
	if n < headerLen {
		tensor.Put(wb)
		return nil, fmt.Errorf("%w: frame length %d below header size", ErrBadRequest, n)
	}
	f.TraceID = binary.BigEndian.Uint64(buf[idLen:])
	f.Payload = buf[headerLen:]
	return f, nil
}

// wireLen returns the full on-wire size of f (length prefix + header
// + payload), for byte-counter telemetry.
func wireLen(f *Frame) int { return 4 + headerLen + len(f.Payload) }

// appendMatrix appends the wire encoding of m (rows, cols, row-major
// float32 bits) to dst: one grow to the exact final size up front (no
// doubling-and-recopy churn on megabyte frames), then big-endian
// stores over one contiguous pass of the backing array — no per-row
// intermediate buffers.
func appendMatrix(dst []byte, m *tensor.Matrix) []byte {
	need := 8 + m.Elems()*4
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Rows))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Cols))
	if m.IsCompact() || m.Rows == 1 {
		// One contiguous pass over the backing array; the appends above
		// reserved the exact final size, so these inline to plain stores.
		for _, v := range m.Data[:m.Rows*m.Cols] {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(v))
		}
		return dst
	}
	for r := 0; r < m.Rows; r++ {
		for _, v := range m.Row(r) {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// matrixWireLen is the encoded size of m: two u32 dimensions plus four
// bytes per element.
func matrixWireLen(m *tensor.Matrix) int { return 8 + m.Elems()*4 }

// encodeMatrix renders m into a pooled, exactly pre-sized buffer; the
// caller releases it once the bytes are on the socket.
func encodeMatrix(m *tensor.Matrix) *tensor.Mat[byte] {
	wb := tensor.GetForOverwrite[byte](1, matrixWireLen(m))
	appendMatrix(wb.Data[:0], m)
	return wb
}

// splitMatrix validates the matrix header at the front of buf and
// returns the dimensions, the element bytes and the bytes after them.
// Dimension and length claims are checked before anything proportional
// to them is allocated or read.
func splitMatrix(buf []byte) (rows, cols int, data, rest []byte, err error) {
	if len(buf) < 8 {
		return 0, 0, nil, nil, fmt.Errorf("%w: truncated matrix header", ErrBadRequest)
	}
	r := binary.BigEndian.Uint32(buf[0:])
	c := binary.BigEndian.Uint32(buf[4:])
	if r == 0 || c == 0 || r > MaxDim || c > MaxDim {
		return 0, 0, nil, nil, fmt.Errorf("%w: matrix dimensions %dx%d out of range", ErrBadRequest, r, c)
	}
	need := uint64(r) * uint64(c) * 4
	if uint64(len(buf)-8) < need {
		return 0, 0, nil, nil, fmt.Errorf("%w: matrix %dx%d needs %d data bytes, frame has %d",
			ErrBadRequest, r, c, need, len(buf)-8)
	}
	return int(r), int(c), buf[8 : 8+need], buf[8+need:], nil
}

// decodeMatrixTo decodes one matrix from buf into a matrix obtained
// from alloc (whose contents it overwrites entirely), returning the
// matrix, the remaining bytes and whether every value is finite — the
// finiteness test rides the one pass that converts the bits, so the
// serving path never walks an operand a second time to find a NaN.
func decodeMatrixTo(buf []byte, alloc func(rows, cols int) *tensor.Matrix) (m *tensor.Matrix, rest []byte, finite bool, err error) {
	rows, cols, src, rest, err := splitMatrix(buf)
	if err != nil {
		return nil, nil, false, err
	}
	m = alloc(rows, cols)
	// An all-ones exponent (NaN, ±Inf) carries into bit 31 when one
	// exponent unit is added; every finite value leaves it clear.
	var carry uint32
	dst := m.Data[:len(src)/4]
	for i := range dst {
		b := binary.BigEndian.Uint32(src[:4])
		src = src[4:]
		carry |= b&0x7f800000 + 0x00800000
		dst[i] = math.Float32frombits(b)
	}
	return m, rest, carry>>31 == 0, nil
}

// decodeMatrix decodes one matrix from buf into a fresh matrix the
// caller owns, returning it and the remaining bytes.
func decodeMatrix(buf []byte) (*tensor.Matrix, []byte, error) {
	m, rest, _, err := decodeMatrixTo(buf, tensor.New)
	return m, rest, err
}

// OpRequest is one decoded operator request.
type OpRequest struct {
	Op MsgType
	// DeadlineMillis is the client's end-to-end budget (0 = none).
	DeadlineMillis uint32
	Flags          byte
	A, B           *tensor.Matrix // B nil for unary operators

	// nonFinite records that the decoder saw a NaN or ±Inf in A or B.
	nonFinite bool
}

// encodeOpRequest renders an operator request payload into a pooled,
// exactly pre-sized buffer; the caller releases it after the last send.
func encodeOpRequest(req *OpRequest) *tensor.Mat[byte] {
	n := 5 + matrixWireLen(req.A)
	if req.B != nil {
		n += matrixWireLen(req.B)
	}
	wb := tensor.GetForOverwrite[byte](1, n)
	dst := binary.BigEndian.AppendUint32(wb.Data[:0], req.DeadlineMillis)
	dst = append(dst, req.Flags)
	dst = appendMatrix(dst, req.A)
	if req.B != nil {
		appendMatrix(dst, req.B)
	}
	return wb
}

// opRequestBody checks that payload is an operator request with its
// fixed header (deadline, flags) and returns the matrix bytes after it.
func opRequestBody(op MsgType, payload []byte) ([]byte, error) {
	if !op.isOp() {
		return nil, fmt.Errorf("%w: type %s is not an operator", ErrBadRequest, op)
	}
	if len(payload) < 5 {
		return nil, fmt.Errorf("%w: truncated request header", ErrBadRequest)
	}
	return payload[5:], nil
}

// decodeOpRequestTo parses an operator request payload for op, taking
// the operand matrices from alloc. The matrices never alias payload.
func decodeOpRequestTo(op MsgType, payload []byte, alloc func(rows, cols int) *tensor.Matrix) (*OpRequest, error) {
	rest, err := opRequestBody(op, payload)
	if err != nil {
		return nil, err
	}
	req := &OpRequest{
		Op:             op,
		DeadlineMillis: binary.BigEndian.Uint32(payload[0:]),
		Flags:          payload[4],
	}
	finiteA, finiteB := true, true
	if req.A, rest, finiteA, err = decodeMatrixTo(rest, alloc); err != nil {
		return nil, err
	}
	if !op.unary() {
		if req.B, rest, finiteB, err = decodeMatrixTo(rest, alloc); err != nil {
			req.release()
			return nil, err
		}
	}
	if len(rest) != 0 {
		req.release()
		return nil, fmt.Errorf("%w: %d trailing bytes after request", ErrBadRequest, len(rest))
	}
	req.nonFinite = !finiteA || !finiteB
	return req, nil
}

// release returns the request's operand matrices to the float32 pool.
// Only the daemon calls it, on requests it decoded into pooled
// matrices, once nothing reads them any more; tensor.Put ignores matrices
// that are not pool-shaped.
func (req *OpRequest) release() {
	tensor.Put(req.A)
	tensor.Put(req.B)
	req.A, req.B = nil, nil
}

// decodeOpRequest parses an operator request payload for op into fresh
// matrices the caller owns.
func decodeOpRequest(op MsgType, payload []byte) (*OpRequest, error) {
	return decodeOpRequestTo(op, payload, tensor.New)
}

// DecodeOpRequest parses an operator request payload for op into fresh
// matrices the caller owns.
func DecodeOpRequest(op MsgType, payload []byte) (*OpRequest, error) {
	return decodeOpRequest(op, payload)
}

// ErrorPayload renders the MsgError payload for a typed error — the
// code from the sentinel the error wraps, the message verbatim. The
// cluster router uses it to relay and originate typed failures in the
// daemon's own vocabulary.
func ErrorPayload(err error) []byte {
	return encodeError(classOf(err).code, err.Error())
}

// WireLen returns the full on-wire size of f (length prefix + header +
// payload), for byte-counter telemetry outside this package.
func WireLen(f *Frame) int { return wireLen(f) }

// HealthInfo is the MsgPong payload: what a router's health probe needs
// to distinguish "draining, stop sending" (the daemon is finishing
// in-flight work and will answer everything it accepted) from "dead,
// fail over" (in-flight requests are lost).
type HealthInfo struct {
	// Draining is set once the daemon began a graceful shutdown: it
	// still answers probes on live connections but refuses new work
	// with ErrShuttingDown.
	Draining bool
	// ShardID is the daemon's cluster identity (-shard flag; empty when
	// unset). Routers use it to detect a member answering at the right
	// address with the wrong identity (config cross-wiring).
	ShardID string
	// Devices is the simulated Edge TPU count behind the daemon, a
	// capacity hint.
	Devices int
}

// healthVersion identifies the health payload layout.
const healthVersion byte = 1

// Health payload (MsgPong, version 1):
//
//	offset  size  field
//	0       1     health payload version (1)
//	1       1     flags (bit 0: draining)
//	2       1     device count
//	3       2     shard-id length (big-endian)
//	5       n     shard-id UTF-8
const healthFlagDraining byte = 1 << 0

// encodeHealth renders a health payload.
func encodeHealth(h HealthInfo) []byte {
	var flags byte
	if h.Draining {
		flags |= healthFlagDraining
	}
	dev := h.Devices
	if dev < 0 {
		dev = 0
	} else if dev > 255 {
		dev = 255
	}
	id := h.ShardID
	if len(id) > math.MaxUint16 {
		id = id[:math.MaxUint16]
	}
	dst := make([]byte, 0, 5+len(id))
	dst = append(dst, healthVersion, flags, byte(dev))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(id)))
	return append(dst, id...)
}

// decodeHealth parses a MsgPong payload. A payload that is short, of
// another health version or truncated is an error: every daemon and
// router in this repo sends the layout above.
func decodeHealth(payload []byte) (HealthInfo, error) {
	if len(payload) < 5 || payload[0] != healthVersion {
		return HealthInfo{}, fmt.Errorf("server: malformed health payload (%d bytes)", len(payload))
	}
	n := int(binary.BigEndian.Uint16(payload[3:]))
	if len(payload) < 5+n {
		return HealthInfo{}, errors.New("server: health payload shard ID truncated")
	}
	return HealthInfo{
		Draining: payload[1]&healthFlagDraining != 0,
		Devices:  int(payload[2]),
		ShardID:  string(payload[5 : 5+n]),
	}, nil
}

// encodeError renders an error payload.
func encodeError(code uint16, msg string) []byte {
	dst := make([]byte, 0, 2+len(msg))
	dst = binary.BigEndian.AppendUint16(dst, code)
	return append(dst, msg...)
}

// decodeError parses an error payload.
func decodeError(payload []byte) (uint16, string, error) {
	if len(payload) < 2 {
		return 0, "", fmt.Errorf("%w: truncated error payload", ErrBadRequest)
	}
	return binary.BigEndian.Uint16(payload[0:]), string(payload[2:]), nil
}
