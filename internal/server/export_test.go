package server

import (
	"testing"

	"repro/internal/tensor"
)

// Exports for the external front-door tests, which drive the cluster
// router as well as the daemon (an internal test cannot import the
// cluster package: it imports this one).

// FlushGate is the batcher's flush gate (holdFlushes).
type FlushGate = flushGate

// HoldFlushes holds every micro-batch flush of s at its start until
// Open. Install it before s serves.
func HoldFlushes(s *Server) *FlushGate { return holdFlushes(s.bat) }

// WaitRunning blocks until a flush is held at the gate.
func (g *flushGate) WaitRunning(t *testing.T) { g.waitRunning(t) }

// Open releases every held and future flush.
func (g *flushGate) Open() { g.open() }

// GemmPayload encodes a GEMM request payload for a raw frame.
func GemmPayload(a, b *tensor.Matrix) []byte {
	return encodeOpRequest(&OpRequest{Op: MsgGemm, A: a, B: b}).b
}

// DecodeResult decodes a MsgResult payload.
func DecodeResult(p []byte) (*tensor.Matrix, error) {
	m, _, err := decodeMatrix(p)
	return m, err
}
