package model

import (
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
	for _, bits := range []uint32{0, 0x80000000, 0xbf800000, 0x7f800000, 0x7fc00000} { // +0, -0, -1, +Inf, NaN
		binary.LittleEndian.PutUint32(buf[off:], bits)
		if _, err := Decode(buf); err == nil {
			t.Errorf("scale bits %#x: expected scale error", bits)
		}
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
