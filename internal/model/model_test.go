package model

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func buildRandom(t *testing.T, seed int64, rows, cols, tile int) (*Model, *tensor.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := tensor.RandUniform(rng, rows, cols, -20, 20)
	_, p := quant.Quantize(m)
	return FromMatrix(m, tile, p), m
}

func TestFromMatrixPads(t *testing.T) {
	mod, _ := buildRandom(t, 1, 100, 130, 128)
	if mod.Rows != 128 || mod.Cols != 256 {
		t.Fatalf("padded to %dx%d, want 128x256", mod.Rows, mod.Cols)
	}
	// Padding must be zeros.
	for r := 100; r < 128; r++ {
		for c := 0; c < 256; c++ {
			if mod.Data.At(r, c) != 0 {
				t.Fatal("bottom padding not zero")
			}
		}
	}
}

func TestFromMatrixExactTileNoPad(t *testing.T) {
	mod, _ := buildRandom(t, 2, 128, 128, 128)
	if mod.Rows != 128 || mod.Cols != 128 {
		t.Fatalf("got %dx%d", mod.Rows, mod.Cols)
	}
}

func TestFromMatrixZeroDims(t *testing.T) {
	m := tensor.New(0, 0)
	mod := FromMatrix(m, 128, quant.Params{Scale: 1})
	if mod.Rows != 128 || mod.Cols != 128 {
		t.Fatalf("zero-dim input must pad to one tile, got %dx%d", mod.Rows, mod.Cols)
	}
}

func TestFromMatrixBadTilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromMatrix(tensor.New(2, 2), 0, quant.Params{Scale: 1})
}

func TestEncodeLayout(t *testing.T) {
	mod, _ := buildRandom(t, 3, 128, 128, 128)
	buf := mod.Encode()
	wantLen := HeaderSize + 128*128 + 12
	if len(buf) != wantLen {
		t.Fatalf("encoded %d bytes want %d", len(buf), wantLen)
	}
	// Observation 1: last 4 header bytes hold the data-section size.
	if got := binary.LittleEndian.Uint32(buf[HeaderSize-4 : HeaderSize]); got != 128*128 {
		t.Fatalf("header size field = %d", got)
	}
	// Observation 2: data section is row-major int8.
	if int8(buf[HeaderSize]) != mod.Data.At(0, 0) {
		t.Fatal("first data byte mismatch")
	}
	if int8(buf[HeaderSize+128]) != mod.Data.At(1, 0) {
		t.Fatal("row-major layout violated")
	}
	// Observation 3: metadata rows/cols.
	meta := buf[HeaderSize+128*128:]
	if binary.LittleEndian.Uint32(meta[0:4]) != 128 || binary.LittleEndian.Uint32(meta[4:8]) != 128 {
		t.Fatal("metadata dims wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	mod, _ := buildRandom(t, 4, 200, 300, 128)
	dec, err := Decode(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows != mod.Rows || dec.Cols != mod.Cols || dec.Scale != mod.Scale {
		t.Fatalf("meta mismatch: %v vs %v", dec, mod)
	}
	if !dec.Data.Equal(mod.Data) {
		t.Fatal("data mismatch")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	mod, _ := buildRandom(t, 5, 16, 16, 16)
	buf := mod.Encode()
	buf[0] ^= 0xFF
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected version error")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	mod, _ := buildRandom(t, 6, 16, 16, 16)
	buf := mod.Encode()
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, err := Decode(buf[:10]); err == nil {
		t.Fatal("expected short-buffer error")
	}
}

func TestDecodeRejectsInconsistentMeta(t *testing.T) {
	mod, _ := buildRandom(t, 7, 16, 16, 16)
	buf := mod.Encode()
	// Corrupt metadata rows.
	off := HeaderSize + 16*16
	binary.LittleEndian.PutUint32(buf[off:], 999)
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected dimension-consistency error")
	}
}

func TestDecodeRejectsBadScale(t *testing.T) {
	mod, _ := buildRandom(t, 8, 16, 16, 16)
	buf := mod.Encode()
	off := HeaderSize + 16*16 + 8
	binary.LittleEndian.PutUint32(buf[off:], 0) // scale = +0
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected scale error")
	}
}

func TestToMatrixDequantizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := tensor.RandUniform(rng, 64, 64, -5, 5)
	_, p := quant.Quantize(m)
	mod := FromMatrix(m, 64, p)
	back := mod.ToMatrix()
	if rmse := tensor.RMSE(m, back); rmse > 0.01 {
		t.Fatalf("dequantized RMSE %v too high", rmse)
	}
}

func TestFromI8ClonesViews(t *testing.T) {
	base := tensor.NewI8(4, 8)
	v := base.View(0, 0, 4, 4)
	mod := FromI8(v, 1)
	if mod.Data.Stride != 4 {
		t.Fatal("FromI8 must compact strided views")
	}
	if n := len(mod.Encode()); n != HeaderSize+16+12 {
		t.Fatalf("encoded %d bytes", n)
	}
}

// Property: encode/decode round-trips for arbitrary shapes and values.
func TestQuickRoundTrip(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows)%60+1, int(cols)%60+1
		rng := rand.New(rand.NewSource(seed))
		m := tensor.RandUniform(rng, r, c, -100, 100)
		_, p := quant.Quantize(m)
		mod := FromMatrix(m, 16, p)
		dec, err := Decode(mod.Encode())
		if err != nil {
			return false
		}
		return dec.Data.Equal(mod.Data) && dec.Scale == mod.Scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never panics on arbitrary byte soup.
func TestQuickDecodeRobustness(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked")
			}
		}()
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	mod, _ := buildRandom(t, 20, 100, 60, 16)
	var buf bytes.Buffer
	n, err := mod.EncodeTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("streamed %d bytes, EncodeTo says %d", buf.Len(), n)
	}
	// Streamed bytes must be identical to the in-memory encoder's.
	if !bytes.Equal(buf.Bytes(), mod.Encode()) {
		t.Fatal("EncodeTo and Encode disagree")
	}
	dec, err := DecodeFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Data.Equal(mod.Data) || dec.Scale != mod.Scale {
		t.Fatal("stream round-trip mismatch")
	}
}

func TestDecodeFromErrors(t *testing.T) {
	mod, _ := buildRandom(t, 21, 8, 8, 8)
	full := mod.Encode()

	// Truncations at every section boundary.
	for _, cut := range []int{4, HeaderSize - 1, HeaderSize + 10, len(full) - 1} {
		if _, err := DecodeFrom(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xFF
	if _, err := DecodeFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic must fail")
	}
	// Implausible data length.
	bad2 := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(bad2[HeaderSize-4:], 1<<31-1)
	if _, err := DecodeFrom(bytes.NewReader(bad2)); err == nil {
		t.Error("implausible length must fail")
	}
}

// TestDecodeFromStream: DecodeFrom consumes exactly one model, so two
// models written back to back decode in turn from one stream.
func TestDecodeFromStream(t *testing.T) {
	first, _ := buildRandom(t, 22, 8, 16, 8)
	second, _ := buildRandom(t, 23, 24, 8, 8)
	var buf bytes.Buffer
	for _, m := range []*Model{first, second} {
		if _, err := m.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []*Model{first, second} {
		got, err := DecodeFrom(&buf)
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		if !got.Data.Equal(want.Data) || got.Scale != want.Scale {
			t.Fatalf("model %d does not round-trip", i)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after both models", buf.Len())
	}
}

// Property: streamed and in-memory encodings agree for all shapes.
func TestQuickStreamAgrees(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows)%40+1, int(cols)%40+1
		rng := rand.New(rand.NewSource(seed))
		m := tensor.RandUniform(rng, r, c, -50, 50)
		_, p := quant.Quantize(m)
		mod := FromMatrix(m, 8, p)
		var buf bytes.Buffer
		if _, err := mod.EncodeTo(&buf); err != nil {
			return false
		}
		return bytes.Equal(buf.Bytes(), mod.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
