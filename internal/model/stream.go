package model

import (
	"encoding/binary"
	"fmt"
	"io"
)

// EncodeTo writes the model's on-wire form (Encode's bytes) to w and
// returns the number of bytes written.
func (m *Model) EncodeTo(w io.Writer) (int64, error) {
	n, err := w.Write(m.Encode())
	return int64(n), err
}

// DecodeFrom reads exactly one model from r, leaving r positioned at
// the byte after it, so a stream can carry models back to back. The
// header is checked and its data-section length bounded before the
// body is allocated; Decode validates the rest.
func DecodeFrom(r io.Reader) (*Model, error) {
	header := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("model: reading header: %w", err)
	}
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	dataLen := binary.LittleEndian.Uint32(header[HeaderSize-4:])
	if dataLen > maxStreamData {
		return nil, fmt.Errorf("model: implausible data-section size %d", dataLen)
	}
	buf := make([]byte, HeaderSize+int(dataLen)+metadataSize)
	copy(buf, header)
	if _, err := io.ReadFull(r, buf[HeaderSize:]); err != nil {
		return nil, fmt.Errorf("model: reading data and metadata: %w", err)
	}
	return Decode(buf)
}

// maxStreamData bounds a streamed data section at 1 GiB (a 32K x 32K
// matrix — Table 3's largest input — is 1 GiB in int8).
const maxStreamData = 1 << 30
