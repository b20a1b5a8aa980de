package tensor

import "testing"

func TestPoolRoundTripI8(t *testing.T) {
	m := Get[int8](7, 9)
	if m.Rows != 7 || m.Cols != 9 || m.Stride != 9 || len(m.Data) != 63 {
		t.Fatalf("Get[int8] shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Get[int8] must return zeroed data")
		}
	}
	for i := range m.Data {
		m.Data[i] = int8(i)
	}
	PutI8(m)
	// A recycled buffer of any prior contents must come back zeroed.
	n := Get[int8](5, 5)
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("recycled Get[int8] not zeroed")
		}
	}
	PutI8(n)
}

func TestPoolRoundTripI32(t *testing.T) {
	m := Get[int32](128, 128)
	m.Set(3, 4, 42)
	PutI32(m)
	n := Get[int32](128, 128)
	if n.At(3, 4) != 0 {
		t.Fatal("recycled Get[int32] not zeroed")
	}
	PutI32(n)
}

func TestPoolRejectsViews(t *testing.T) {
	parent := Get[int8](16, 16)
	v := parent.View(2, 2, 4, 4)
	PutI8(v) // view: must be a no-op, not corrupt the pool
	got := Get[int8](4, 4)
	if got.Stride != 4 {
		t.Fatalf("pool handed out a strided view: stride %d", got.Stride)
	}
	PutI8(parent)
	PutI8(got)
}

func TestPoolNilAndHugeSafe(t *testing.T) {
	PutI8(nil)
	PutI32(nil)
	big := Get[int8](1<<13, 1<<13) // 2^26 elements: beyond maxPoolBits, plain alloc
	if len(big.Data) != 1<<26 {
		t.Fatal("huge Get[int8] wrong size")
	}
	PutI8(big) // no-op (cap is pow2 but bucket out of range)
	if Get[int8](0, 0).Elems() != 0 {
		t.Fatal("empty Get[int8]")
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
		m := Get[int32](128, 128)
		PutI32(m)
	}
}

func TestPoolRoundTripF32(t *testing.T) {
	m := GetForOverwrite[float32](7, 9)
	if m.Rows != 7 || m.Cols != 9 || m.Stride != 9 || len(m.Data) != 63 || cap(m.Data) != 64 {
		t.Fatalf("GetForOverwrite shape: %dx%d stride %d len %d cap %d", m.Rows, m.Cols, m.Stride, len(m.Data), cap(m.Data))
	}
	Put(m)
	// Whatever comes back for the same class has the new shape.
	n := GetForOverwrite[float32](4, 16)
	if n.Rows != 4 || n.Cols != 16 || n.Stride != 16 || len(n.Data) != 64 {
		t.Fatalf("recycled shape: %dx%d stride %d len %d", n.Rows, n.Cols, n.Stride, len(n.Data))
	}
	Put(n)
}

// TestPoolF32Ownership pins what Put refuses: views, nil, matrices
// whose backing array is not pool-shaped, and sizes outside the pooled
// range. Each must be a no-op — a refused matrix stays intact.
func TestPoolF32Ownership(t *testing.T) {
	Put[float32](nil)
	parent := GetForOverwrite[float32](16, 16)
	parent.Fill(3)
	Put(parent.View(2, 2, 4, 4))
	if got := GetForOverwrite[float32](4, 4); got.Stride != 4 {
		t.Fatalf("pool handed out a strided view: stride %d", got.Stride)
	}
	odd := New(10, 10) // cap 100: not a pool capacity
	odd.Fill(7)
	Put(odd)
	if got := GetForOverwrite[float32](10, 10); &got.Data[0] == &odd.Data[0] {
		t.Fatal("a matrix with a non-pool capacity was recycled")
	}
	if odd.At(9, 9) != 7 {
		t.Fatal("refused Put disturbed the matrix")
	}
	big := GetForOverwrite[float32](1<<13, 1<<12) // 2^25 elements: beyond maxPoolBits
	if len(big.Data) != 1<<25 {
		t.Fatal("huge GetForOverwrite wrong size")
	}
	Put(big)
}

// TestGetF32Exact: a result matrix never costs more than its elements.
// Sizes that are pool capacities recycle, every other size is an exact
// allocation that Put ignores.
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
			Put(m)
			m = GetF32Exact(tc.rows, tc.cols)
			recycled = &m.Data[0] == p
		}
		if recycled != tc.pooled {
			t.Errorf("%dx%d: recycled = %v, want %v", tc.rows, tc.cols, recycled, tc.pooled)
		}
	}
}

// TestRecyclerEveryElemType runs the recycler's contract over each
// element type it serves.
func TestRecyclerEveryElemType(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"int8", checkRecycler[int8]},
		{"int32", checkRecycler[int32]},
		{"float32", checkRecycler[float32]},
		{"byte", checkRecycler[byte]},
		{"int64", checkRecycler[int64]},
	} {
		t.Run(tc.name, tc.run)
	}
}

func checkRecycler[T Elem](t *testing.T) {
	m := GetForOverwrite[T](7, 9)
	if m.Rows != 7 || m.Cols != 9 || m.Stride != 9 || len(m.Data) != 63 || cap(m.Data) != 64 {
		t.Fatalf("GetForOverwrite shape: %dx%d stride %d len %d cap %d", m.Rows, m.Cols, m.Stride, len(m.Data), cap(m.Data))
	}
	Put(m)

	// A round trip hands the same storage back, zeroed by Get. A Put
	// is normally the very next Get's answer; a few attempts ride out
	// a goroutine migration or a collection in between.
	if !RaceEnabled { // sync.Pool drops Puts under race
		recycled := false
		for try := 0; try < 10 && !recycled; try++ {
			m := Get[T](3, 50)
			m.Fill(5)
			p := &m.Data[0]
			Put(m)
			n := Get[T](16, 16)
			recycled = &n.Data[0] == p
			for _, v := range n.Data {
				if v != 0 {
					t.Fatal("recycled Get not zeroed")
				}
			}
			Put(n)
		}
		if !recycled {
			t.Fatal("round trip did not reuse storage")
		}
		if allocs := testing.AllocsPerRun(100, func() { Put(GetForOverwrite[T](128, 128)) }); allocs != 0 {
			t.Fatalf("Get+Put allocate %v times, want 0", allocs)
		}
	}

	// The view's capacity is a size class: only its stride tells.
	parent := Get[T](16, 16)
	view := parent.View(0, 0, 4, 4)
	Put(view)
	if onFreeList(view) {
		t.Fatal("a strided view was recycled")
	}
	Put(parent)

	// Sizes 0 and above the largest class are exact and never recycle.
	for _, n := range []int{0, 1<<maxPoolBits + 1} {
		m := Get[T](1, n)
		if len(m.Data) != n || cap(m.Data) != n {
			t.Fatalf("Get(1, %d): len %d cap %d, want exactly %d", n, len(m.Data), cap(m.Data), n)
		}
		Put(m)
		if onFreeList(m) {
			t.Fatalf("Get(1, %d) was recycled", n)
		}
	}
}

// onFreeList reports whether m sits on any of T's free lists, draining
// every list it looks at.
func onFreeList[T Elem](m *Mat[T]) bool {
	found := false
	pools := poolsOf[T]()
	for b := range pools {
		for x := pools[b].Get(); x != nil; x = pools[b].Get() {
			found = found || x.(*Mat[T]) == m
		}
	}
	return found
}
