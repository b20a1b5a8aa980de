package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FNV-1a 64 parameters. WeightKey feeds the hash one little-endian
// uint64 per value, and the four high bytes of a widened 32-bit value
// are zero: four xor-with-zero steps that collapse to one multiply by
// the prime's fourth power (mod 2^64).
const (
	fnvOffset64  uint64 = 14695981039346656037
	fnvPrime64   uint64 = 1099511628211
	fnvPrime64p4 uint64 = 0x9ffaac085635bc91
)

// fnvWord folds the 8 little-endian bytes of v into h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// fnvBits folds one float's bit pattern, widened to 64 bits, into h.
func fnvBits(h uint64, b uint32) uint64 {
	h = (h ^ uint64(b&0xff)) * fnvPrime64
	h = (h ^ uint64(b>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(b>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(b>>24)) * fnvPrime64
	return h * fnvPrime64p4
}

// WeightKey fingerprints a matrix's dimensions and float bit patterns
// (FNV-1a 64 over one little-endian uint64 per value, dimensions
// first). It is the content-derived identity of a batchable GEMM's
// weight operand B, shared by the micro-batcher (batch-group
// compatibility and the weight-buffer cache) and the cluster router
// (rendezvous placement key, through WireWeightKey), so the node a
// weight matrix hashes to is the node whose batcher already holds its
// quantized buffer — repeat traffic for a model lands where its
// weights are hot. No other request is keyed by content: nothing on
// the daemon would read the key.
//
// The key is a fast index, not an identity proof: 64-bit FNV
// collisions are adversarially craftable, so every consumer that acts
// on a key match MUST confirm byte identity with WeightEqual and fall
// back to a collision-safe path on mismatch (the batcher serves the
// request unbatched; the router's placement is only a routing hint, so
// a collision merely co-locates two models on one node — never
// computes against the wrong weights).
func WeightKey(m *tensor.Matrix) uint64 {
	h := fnvWord(fnvOffset64, uint64(m.Rows)<<32|uint64(m.Cols))
	for r := 0; r < m.Rows; r++ {
		for _, v := range m.Row(r) {
			h = fnvBits(h, math.Float32bits(v))
		}
	}
	return h
}

// batchable is the micro-batcher's admission predicate, one rule for
// the daemon (serveAdmitted) and the router (WireWeightKey): a GEMM
// that did not opt out, whose A and B each hold at most batchMaxElems
// elements.
func batchable(op MsgType, flags byte, aElems, bElems int) bool {
	return op == MsgGemm && flags&flagNoBatch == 0 && aElems <= batchMaxElems && bElems <= batchMaxElems
}

// WireWeightKey validates an encoded operator request exactly as
// DecodeOpRequest does (same typed ErrBadRequest on malformed input)
// and reports whether the daemon would batch it. For a batchable GEMM
// it also returns WeightKey of the weight operand B, bit for bit,
// computed over the payload bytes in place, so the router places the
// request where the daemon's batcher keys it without materializing
// either matrix. Any other request hashes nothing and returns key 0.
func WireWeightKey(op MsgType, payload []byte) (key uint64, batched bool, err error) {
	body, err := opRequestBody(op, payload)
	if err != nil {
		return 0, false, err
	}
	rows, cols, _, rest, err := splitMatrix(body)
	if err != nil {
		return 0, false, err
	}
	aElems, bElems, data := rows*cols, 0, []byte(nil)
	if op.operator().Arity() == 2 {
		if rows, cols, data, rest, err = splitMatrix(rest); err != nil {
			return 0, false, err
		}
		bElems = rows * cols
	}
	if len(rest) != 0 {
		return 0, false, fmt.Errorf("%w: %d trailing bytes after request", ErrBadRequest, len(rest))
	}
	if !batchable(op, payload[4], aElems, bElems) {
		return 0, false, nil
	}
	h := fnvWord(fnvOffset64, uint64(rows)<<32|uint64(cols))
	for ; len(data) >= 4; data = data[4:] {
		h = fnvBits(h, binary.BigEndian.Uint32(data))
	}
	return h, true, nil
}

// WeightEqual reports byte-identity of two matrices (dimensions and
// float bit patterns — NaNs compare by bits, not IEEE equality). It is
// the collision fallback every WeightKey match must be confirmed with.
func WeightEqual(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		ar, br := a.Row(r), b.Row(r)
		for i := range ar {
			if math.Float32bits(ar[i]) != math.Float32bits(br[i]) {
				return false
			}
		}
	}
	return true
}
