package model

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecode hammers the on-wire model parser: it must never panic,
// and anything it accepts must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	q := tensor.NewI8(3, 5)
	for i := range q.Data {
		q.Data[i] = int8(i*7 - 30)
	}
	f.Add((&Model{Rows: 3, Cols: 5, Scale: 2, Data: q}).Encode())
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize+12))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Encode(), data) {
			t.Fatalf("accepted input does not round-trip")
		}
	})
}
