package tensor

import "testing"

func TestPoolRoundTripI8(t *testing.T) {
	m := GetI8(7, 9)
	if m.Rows != 7 || m.Cols != 9 || m.Stride != 9 || len(m.Data) != 63 {
		t.Fatalf("GetI8 shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("GetI8 must return zeroed data")
		}
	}
	for i := range m.Data {
		m.Data[i] = int8(i)
	}
	PutI8(m)
	// A recycled buffer of any prior contents must come back zeroed.
	n := GetI8(5, 5)
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("recycled GetI8 not zeroed")
		}
	}
	PutI8(n)
}

func TestPoolRoundTripI32(t *testing.T) {
	m := GetI32(128, 128)
	m.Set(3, 4, 42)
	PutI32(m)
	n := GetI32(128, 128)
	if n.At(3, 4) != 0 {
		t.Fatal("recycled GetI32 not zeroed")
	}
	PutI32(n)
}

func TestPoolRejectsViews(t *testing.T) {
	parent := GetI8(16, 16)
	v := parent.View(2, 2, 4, 4)
	PutI8(v) // view: must be a no-op, not corrupt the pool
	got := GetI8(4, 4)
	if got.Stride != 4 {
		t.Fatalf("pool handed out a strided view: stride %d", got.Stride)
	}
	PutI8(parent)
	PutI8(got)
}

func TestPoolNilAndHugeSafe(t *testing.T) {
	PutI8(nil)
	PutI32(nil)
	big := GetI8(1<<13, 1<<13) // 2^26 elements: beyond maxPoolBits, plain alloc
	if len(big.Data) != 1<<26 {
		t.Fatal("huge GetI8 wrong size")
	}
	PutI8(big) // no-op (cap is pow2 but bucket out of range)
	if GetI8(0, 0).Elems() != 0 {
		t.Fatal("empty GetI8")
	}
}

func TestPoolBucket(t *testing.T) {
	cases := map[int]int{1: 6, 63: 6, 64: 6, 65: 7, 128: 7, 16384: 14, 1 << 24: 24}
	for n, want := range cases {
		if got := poolBucket(n); got != want {
			t.Fatalf("poolBucket(%d) = %d, want %d", n, got, want)
		}
	}
	if poolBucket(0) != -1 || poolBucket(1<<24+1) != -1 {
		t.Fatal("out-of-range bucket must be -1")
	}
}

func BenchmarkGetPutI32Tile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := GetI32(128, 128)
		PutI32(m)
	}
}

func TestPoolRoundTripF32(t *testing.T) {
	m := GetF32ForOverwrite(7, 9)
	if m.Rows != 7 || m.Cols != 9 || m.Stride != 9 || len(m.Data) != 63 || cap(m.Data) != 64 {
		t.Fatalf("GetF32ForOverwrite shape: %dx%d stride %d len %d cap %d", m.Rows, m.Cols, m.Stride, len(m.Data), cap(m.Data))
	}
	PutF32(m)
	// Whatever comes back for the same class has the new shape.
	n := GetF32ForOverwrite(4, 16)
	if n.Rows != 4 || n.Cols != 16 || n.Stride != 16 || len(n.Data) != 64 {
		t.Fatalf("recycled shape: %dx%d stride %d len %d", n.Rows, n.Cols, n.Stride, len(n.Data))
	}
	PutF32(n)
}

// TestPoolF32Ownership pins what PutF32 refuses: views, nil, matrices
// whose backing array is not pool-shaped, and sizes outside the pooled
// range. Each must be a no-op — a refused matrix stays intact.
func TestPoolF32Ownership(t *testing.T) {
	PutF32(nil)
	parent := GetF32ForOverwrite(16, 16)
	parent.Fill(3)
	PutF32(parent.View(2, 2, 4, 4))
	if got := GetF32ForOverwrite(4, 4); got.Stride != 4 {
		t.Fatalf("pool handed out a strided view: stride %d", got.Stride)
	}
	odd := New(10, 10) // cap 100: not a pool capacity
	odd.Fill(7)
	PutF32(odd)
	if got := GetF32ForOverwrite(10, 10); &got.Data[0] == &odd.Data[0] {
		t.Fatal("a matrix with a non-pool capacity was recycled")
	}
	if odd.At(9, 9) != 7 {
		t.Fatal("refused Put disturbed the matrix")
	}
	big := GetF32ForOverwrite(1<<13, 1<<12) // 2^25 elements: beyond maxPoolBits
	if len(big.Data) != 1<<25 {
		t.Fatal("huge GetF32ForOverwrite wrong size")
	}
	PutF32(big)
}

// TestGetF32Exact: a result matrix never costs more than its elements.
// Sizes that are pool capacities recycle, every other size is an exact
// allocation that PutF32 ignores.
func TestGetF32Exact(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		pooled     bool
	}{{32, 32, true}, {8, 8, true}, {4, 4, false}, {10, 10, false}, {100, 7, false}, {1, 1, false}} {
		m := GetF32Exact(tc.rows, tc.cols)
		if m.Rows != tc.rows || m.Cols != tc.cols || m.Stride != tc.cols {
			t.Fatalf("%dx%d: shape %dx%d stride %d", tc.rows, tc.cols, m.Rows, m.Cols, m.Stride)
		}
		if cap(m.Data) != tc.rows*tc.cols {
			t.Errorf("%dx%d: capacity %d, want exactly %d", tc.rows, tc.cols, cap(m.Data), tc.rows*tc.cols)
		}
		if RaceEnabled {
			continue // sync.Pool drops Puts under race: recycling is not observable
		}
		// A Put is normally the very next Get's answer; a few attempts
		// ride out a goroutine migration or a collection in between.
		recycled := false
		for try := 0; try < 10 && !recycled; try++ {
			p := &m.Data[0]
			PutF32(m)
			m = GetF32Exact(tc.rows, tc.cols)
			recycled = &m.Data[0] == p
		}
		if recycled != tc.pooled {
			t.Errorf("%dx%d: recycled = %v, want %v", tc.rows, tc.cols, recycled, tc.pooled)
		}
	}
}
