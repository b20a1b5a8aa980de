package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 5)
	if m.Rows != 3 || m.Cols != 5 || m.Stride != 5 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("element (%d,%d) not zero", r, c)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v want 6", m.At(1, 2))
	}
	m.Set(0, 0, 42)
	if data[0] != 42 {
		t.Fatal("FromSlice must share storage")
	}
}

func TestFromSliceShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short slice")
		}
	}()
	FromSlice(2, 3, make([]float32, 5))
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatal("view write not visible in parent")
	}
	if v.Rows != 2 || v.Cols != 2 || v.Stride != 4 {
		t.Fatalf("unexpected view shape: %+v", v)
	}
}

func TestViewBoundsPanics(t *testing.T) {
	m := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds view")
		}
	}()
	m.View(2, 2, 3, 3)
}

// TestViewEmptyWindow: an empty window is in bounds anywhere up to the
// far edge, of a compact matrix and of a view alike, and takes no
// data; a window starting past the edge still panics.
func TestViewEmptyWindow(t *testing.T) {
	compact := New(8, 8)
	view := New(12, 10).View(2, 1, 8, 8)
	for _, m := range []*Matrix{compact, view} {
		for _, w := range [][4]int{{8, 8, 0, 0}, {8, 1, 0, 3}, {0, 8, 5, 0}, {8, 0, 0, 8}, {3, 7, 0, 1}, {0, 0, 0, 0}} {
			v := m.View(w[0], w[1], w[2], w[3])
			if v.Rows != w[2] || v.Cols != w[3] || len(v.Data) != 0 || v.Elems() != 0 {
				t.Errorf("stride %d: View%v = %dx%d over %d elements, want %dx%d over none",
					m.Stride, w, v.Rows, v.Cols, len(v.Data), w[2], w[3])
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stride %d: empty window at (9,0) must panic", m.Stride)
				}
			}()
			m.View(9, 0, 0, 3)
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone must not share storage")
	}
	if !c.IsCompact() {
		t.Fatal("Clone must be compact")
	}
}

func TestCloneOfViewIsCompact(t *testing.T) {
	m := New(4, 6)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	v := m.View(1, 2, 2, 3)
	c := v.Clone()
	if !c.IsCompact() || c.Rows != 2 || c.Cols != 3 {
		t.Fatalf("bad clone: %+v", c)
	}
	for r := 0; r < 2; r++ {
		for cc := 0; cc < 3; cc++ {
			if c.At(r, cc) != v.At(r, cc) {
				t.Fatalf("clone mismatch at (%d,%d)", r, cc)
			}
		}
	}
}

func TestPadAndCrop(t *testing.T) {
	m := New(2, 3)
	m.Fill(1)
	p := m.Pad(4, 4)
	if p.Rows != 4 || p.Cols != 4 {
		t.Fatalf("pad shape %dx%d", p.Rows, p.Cols)
	}
	var sum float32
	for _, v := range p.Data {
		sum += v
	}
	if sum != 6 {
		t.Fatalf("pad sum %v want 6 (zero padding)", sum)
	}
	c := p.View(0, 0, 2, 3).Clone()
	if !c.Equal(m) {
		t.Fatal("crop(pad(m)) != m")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatal("transpose values wrong")
	}
	if !tr.Transpose().Equal(m) {
		t.Fatal("double transpose not identity")
	}
}

func TestMinMax(t *testing.T) {
	m := FromSlice(2, 2, []float32{-3, 1, 2, 0.5})
	min, max := m.MinMax()
	if min != -3 || max != 2 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
	e := New(0, 0)
	if mn, mx := e.MinMax(); mn != 0 || mx != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
}

func TestTilesCoverExactlyOnce(t *testing.T) {
	m := New(130, 257)
	seen := New(130, 257)
	for _, sp := range TileSpans(m.Rows, m.Cols, 128, 128) {
		tile := seen.View(sp.R0, sp.C0, sp.Rows, sp.Cols)
		for r := 0; r < tile.Rows; r++ {
			for c := 0; c < tile.Cols; c++ {
				tile.Set(r, c, tile.At(r, c)+1)
			}
		}
	}
	for i, v := range seen.Data {
		if v != 1 {
			t.Fatalf("element %d covered %v times", i, v)
		}
	}
}

func TestTilesShape(t *testing.T) {
	m := New(256, 256)
	spans := TileSpans(m.Rows, m.Cols, 128, 128)
	if len(spans) != 4 {
		t.Fatalf("got %d tiles, want 4", len(spans))
	}
	for _, sp := range spans {
		if tile := m.View(sp.R0, sp.C0, sp.Rows, sp.Cols); tile.Rows != 128 || tile.Cols != 128 {
			t.Fatalf("uneven tile %dx%d", tile.Rows, tile.Cols)
		}
	}
}

func TestMAPEPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandUniform(rng, 8, 8, -5, 5)
	if MAPE(m, m) != 0 {
		t.Fatal("MAPE of identical matrices must be 0")
	}
	if RMSE(m, m) != 0 {
		t.Fatal("RMSE of identical matrices must be 0")
	}
}

func TestMAPEKnownValue(t *testing.T) {
	w := FromSlice(1, 2, []float32{100, 200})
	g := FromSlice(1, 2, []float32{101, 198})
	got := MAPE(w, g)
	want := (0.01 + 0.01) / 2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MAPE=%v want %v", got, want)
	}
}

func TestRMSENormalized(t *testing.T) {
	w := FromSlice(1, 2, []float32{3, 4})
	g := FromSlice(1, 2, []float32{3, 4.5})
	got := RMSE(w, g)
	want := math.Sqrt(0.25 / 25.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("RMSE=%v want %v", got, want)
	}
}

func TestRandGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := RandUniform(rng, 50, 50, 2, 8)
	min, max := u.MinMax()
	if min < 2 || max >= 8 {
		t.Fatalf("uniform out of range [%v,%v)", min, max)
	}
	p := RandPositiveInts(rng, 50, 50, 16)
	for _, v := range p.Data {
		if v != float32(int(v)) || v < 0 || v > 16 {
			t.Fatalf("bad positive int %v", v)
		}
	}
}

// Property: Pad then Crop recovers the original matrix for any shape.
func TestQuickPadCropRoundTrip(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows)%20+1, int(cols)%20+1
		rng := rand.New(rand.NewSource(seed))
		m := RandUniform(rng, r, c, -100, 100)
		p := m.Pad(r+3, c+5)
		return p.View(0, 0, r, c).Clone().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every element of a tiling belongs to exactly one tile and
// views over the spans agree with the parent.
func TestQuickTilesAgree(t *testing.T) {
	f := func(rows, cols, tr, tc uint8, seed int64) bool {
		r, c := int(rows)%50+1, int(cols)%50+1
		th, tw := int(tr)%7+1, int(tc)%7+1
		rng := rand.New(rand.NewSource(seed))
		m := RandUniform(rng, r, c, -1, 1)
		count := 0
		for _, sp := range TileSpans(r, c, th, tw) {
			tile := m.View(sp.R0, sp.C0, sp.Rows, sp.Cols)
			count += tile.Elems()
			for rr := 0; rr < tile.Rows; rr++ {
				for cc := 0; cc < tile.Cols; cc++ {
					if tile.At(rr, cc) != m.At(sp.R0+rr, sp.C0+cc) {
						return false
					}
				}
			}
		}
		return count == m.Elems()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows)%30+1, int(cols)%30+1
		rng := rand.New(rand.NewSource(seed))
		m := RandUniform(rng, r, c, -10, 10)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestI8Basics(t *testing.T) {
	m := NewI8(3, 3)
	m.Set(1, 1, -7)
	if m.At(1, 1) != -7 {
		t.Fatal("I8 set/get failed")
	}
	v := m.View(1, 1, 2, 2)
	if v.At(0, 0) != -7 {
		t.Fatal("I8 view wrong")
	}
	c := m.Clone()
	c.Set(1, 1, 3)
	if m.At(1, 1) != -7 {
		t.Fatal("I8 clone shares storage")
	}
	p := m.Pad(4, 4)
	if p.At(1, 1) != -7 || p.At(3, 3) != 0 {
		t.Fatal("I8 pad wrong")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("I8 equal failed")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice(1, 2, []float32{1, 2})
	if small.String() != "Matrix(1x2)[1 2]" {
		t.Fatalf("got %q", small.String())
	}
	large := New(100, 100)
	if large.String() != "Matrix(100x100)" {
		t.Fatalf("got %q", large.String())
	}
}
