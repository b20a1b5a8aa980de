package tensor

import "fmt"

// MatrixI8 is a dense row-major int8 matrix: the on-device data layout
// of the Edge TPU (paper section 3.3: "binary-encoded 8-bit integers
// stored in row-major order").
type MatrixI8 struct {
	Rows, Cols int
	Stride     int
	Data       []int8
}

// NewI8 allocates a zeroed rows x cols int8 matrix.
func NewI8(rows, cols int) *MatrixI8 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &MatrixI8{Rows: rows, Cols: cols, Stride: cols, Data: make([]int8, rows*cols)}
}

// At returns the element at (r, c).
func (m *MatrixI8) At(r, c int) int8 { return m.Data[r*m.Stride+c] }

// Set assigns the element at (r, c).
func (m *MatrixI8) Set(r, c int, v int8) { m.Data[r*m.Stride+c] = v }

// Row returns row r as a slice sharing storage with m.
func (m *MatrixI8) Row(r int) []int8 { return m.Data[r*m.Stride : r*m.Stride+m.Cols] }

// Elems returns Rows*Cols.
func (m *MatrixI8) Elems() int { return m.Rows * m.Cols }

// Bytes returns the on-device footprint (1 byte per element).
func (m *MatrixI8) Bytes() int { return m.Elems() }

// Flat is Matrix.Flat for int8 matrices.
func (m *MatrixI8) Flat() MatrixI8 {
	if m.Stride != m.Cols || m.Rows <= 1 {
		return *m
	}
	n := m.Rows * m.Cols
	return MatrixI8{Rows: 1, Cols: n, Stride: n, Data: m.Data[:n]}
}

// View returns a sub-matrix view sharing storage with m.
func (m *MatrixI8) View(r0, c0, rows, cols int) *MatrixI8 {
	if r0 < 0 || c0 < 0 || rows < 0 || cols < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d)+%dx%d out of bounds of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols))
	}
	off := r0*m.Stride + c0
	end := off
	if rows > 0 && cols > 0 {
		end = off + (rows-1)*m.Stride + cols
	}
	return &MatrixI8{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[off:end]}
}

// Clone returns a compact deep copy.
func (m *MatrixI8) Clone() *MatrixI8 {
	out := NewI8(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// Pad returns a compact zero-padded copy grown to rows x cols, the
// padding the Edge TPU compiler inserts to match the 128x128 matrix
// unit (paper section 3.3).
func (m *MatrixI8) Pad(rows, cols int) *MatrixI8 {
	if rows < m.Rows || cols < m.Cols {
		panic(fmt.Sprintf("tensor: Pad target %dx%d smaller than %dx%d", rows, cols, m.Rows, m.Cols))
	}
	out := NewI8(rows, cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r)[:m.Cols], m.Row(r))
	}
	return out
}

// Equal reports exact equality of shape and contents.
func (m *MatrixI8) Equal(o *MatrixI8) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		a, b := m.Row(r), o.Row(r)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// MatrixI32 is the 32-bit accumulator matrix device instructions write
// before requantization. CPU-side aggregation of partial products
// operates on these wide values, which is how GPTPU "reduces precision
// loss in results" (paper section 6.2.1).
type MatrixI32 struct {
	Rows, Cols int
	Stride     int
	Data       []int32
}

// NewI32 allocates a zeroed rows x cols int32 matrix.
func NewI32(rows, cols int) *MatrixI32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &MatrixI32{Rows: rows, Cols: cols, Stride: cols, Data: make([]int32, rows*cols)}
}

// At returns the element at (r, c).
func (m *MatrixI32) At(r, c int) int32 { return m.Data[r*m.Stride+c] }

// Set assigns the element at (r, c).
func (m *MatrixI32) Set(r, c int, v int32) { m.Data[r*m.Stride+c] = v }

// Row returns row r as a slice sharing storage with m.
func (m *MatrixI32) Row(r int) []int32 { return m.Data[r*m.Stride : r*m.Stride+m.Cols] }

// Elems returns Rows*Cols.
func (m *MatrixI32) Elems() int { return m.Rows * m.Cols }

// Flat is Matrix.Flat for int32 matrices.
func (m *MatrixI32) Flat() MatrixI32 {
	if m.Stride != m.Cols || m.Rows <= 1 {
		return *m
	}
	n := m.Rows * m.Cols
	return MatrixI32{Rows: 1, Cols: n, Stride: n, Data: m.Data[:n]}
}

// AddInto accumulates o into m element-wise. Shapes must match.
func (m *MatrixI32) AddInto(o *MatrixI32) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: AddInto shape mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		a, b := m.Row(r), o.Row(r)
		for i := range a {
			a[i] += b[i]
		}
	}
}
