// Package model implements the on-wire Edge TPU model format the
// paper reverse-engineered (section 3.3). The format consists of:
//
//  1. a 120-byte general header whose last 4 bytes hold an unsigned
//     little-endian integer with the size of the data section;
//  2. a data section of binary-encoded 8-bit integers in row-major
//     order, zero-padded to the hardware tile shape;
//  3. a metadata section describing the data-section dimensions in
//     rows and columns plus the float scaling factor f (an int8 value
//     in the data section is the raw value multiplied by f);
//  4. little-endian encoding throughout.
//
// Encoding a model through this codec is the fast Tensorizer path
// that replaces the Python TFLite compiler (2.7 s -> 1.8 ms for a
// 2Kx2K matrix, section 6.2.3); the latency accounting for both paths
// lives in the timing package.
package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// HeaderSize is the fixed general-header length the paper observed.
const HeaderSize = 120

// magic identifies the model-format version; it occupies the first
// bytes of the header (the rest of the header is reserved/zero except
// the trailing data-section size).
var magic = [8]byte{'G', 'P', 'T', 'P', 'U', 'M', '0', '1'}

// metadataSize is rows(4) + cols(4) + scale(4).
const metadataSize = 12

// Model is a decoded Edge TPU model: a quantized, padded matrix plus
// its scaling factor. Rows and Cols are the data-section (padded)
// dimensions, which "do not necessarily reflect the dimensions of raw
// data inputs" (section 3.3).
type Model struct {
	Rows, Cols int
	Scale      float32
	Data       *tensor.MatrixI8
}

// FromMatrix builds a model from raw float data: quantize with the
// supplied parameters and zero-pad both dimensions up to a multiple
// of tile (the Edge TPU compiler "adds zero padding to unused
// elements ... to reflect the hardware microarchitecture").
func FromMatrix(m *tensor.Matrix, tile int, p quant.Params) *Model {
	if tile <= 0 {
		panic(fmt.Sprintf("model: non-positive tile %d", tile))
	}
	pr := roundUp(m.Rows, tile)
	pc := roundUp(m.Cols, tile)
	q := quant.QuantizeWith(m, p)
	if pr != m.Rows || pc != m.Cols {
		q = q.Pad(pr, pc)
	}
	return &Model{Rows: pr, Cols: pc, Scale: p.Scale, Data: q}
}

// Encode serializes the model into the reverse-engineered byte format.
func (m *Model) Encode() []byte {
	dataLen := m.Rows * m.Cols
	buf := make([]byte, HeaderSize+dataLen+metadataSize)

	// Header: magic at offset 0, data-section size in the last 4
	// bytes (section 3.3 observation 1).
	copy(buf[:8], magic[:])
	binary.LittleEndian.PutUint32(buf[HeaderSize-4:HeaderSize], uint32(dataLen))

	// Data section: row-major int8 (observation 2).
	off := HeaderSize
	for r := 0; r < m.Rows; r++ {
		row := m.Data.Row(r)
		for _, v := range row {
			buf[off] = byte(v)
			off++
		}
	}

	// Metadata section: rows, cols, scale factor (observation 3),
	// little-endian (observation 4).
	binary.LittleEndian.PutUint32(buf[off:], uint32(m.Rows))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(m.Cols))
	binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(m.Scale))
	return buf
}

// Decode parses an encoded model, validating structure the way the
// device firmware would.
func Decode(buf []byte) (*Model, error) {
	if len(buf) < HeaderSize+metadataSize {
		return nil, fmt.Errorf("model: truncated buffer (%d bytes)", len(buf))
	}
	for i, b := range magic {
		if buf[i] != b {
			return nil, errors.New("model: unrecognized model-format version")
		}
	}
	// Reserved header bytes must be zero: strict parsing keeps every
	// accepted buffer byte-identical to its canonical re-encoding
	// (guaranteed by the decoder fuzz test).
	for i := len(magic); i < HeaderSize-4; i++ {
		if buf[i] != 0 {
			return nil, fmt.Errorf("model: non-zero reserved header byte at %d", i)
		}
	}
	dataLen := int(binary.LittleEndian.Uint32(buf[HeaderSize-4 : HeaderSize]))
	if len(buf) != HeaderSize+dataLen+metadataSize {
		return nil, fmt.Errorf("model: header claims %d data bytes but buffer holds %d",
			dataLen, len(buf)-HeaderSize-metadataSize)
	}
	meta := buf[HeaderSize+dataLen:]
	rows := int(binary.LittleEndian.Uint32(meta[0:4]))
	cols := int(binary.LittleEndian.Uint32(meta[4:8]))
	scale := math.Float32frombits(binary.LittleEndian.Uint32(meta[8:12]))
	if rows*cols != dataLen {
		return nil, fmt.Errorf("model: metadata %dx%d inconsistent with %d data bytes", rows, cols, dataLen)
	}
	if !(scale > 0 && scale <= math.MaxFloat32) { // finite and positive; NaN fails both
		return nil, fmt.Errorf("model: invalid scale factor %v", scale)
	}
	q := tensor.NewI8(rows, cols)
	src := buf[HeaderSize : HeaderSize+dataLen]
	for i, b := range src {
		q.Data[i] = int8(b)
	}
	return &Model{Rows: rows, Cols: cols, Scale: scale, Data: q}, nil
}

func roundUp(v, m int) int {
	if v == 0 {
		return m
	}
	return (v + m - 1) / m * m
}
