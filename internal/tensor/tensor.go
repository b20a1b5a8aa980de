// Package tensor provides the dense matrix type used throughout the
// GPTPU reproduction — one generic Mat at every element width the
// runtime stores (float32 host values, int8 device data, int32
// accumulators, byte wire buffers, int64 aggregation scratch) — with
// views, tiling, padding, the buffer recycler, and the error metrics
// (MAPE, RMSE) the paper reports in Tables 4 and 5.
//
// Matrices are row-major with an explicit stride so that sub-matrix
// views share storage with their parent, mirroring how the GPTPU
// Tensorizer partitions operator inputs into 128x128 tiles without
// copying (paper section 6.2.1).
package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Elem is the set of element types a Mat holds: int8 device data,
// int32 accumulators, float32 host values, byte wire buffers and int64
// aggregation scratch. The set is closed (no ~): the recycler in
// pool.go keeps one size-classed pool array per member.
type Elem interface {
	int8 | int32 | float32 | byte | int64
}

// Mat is a dense row-major matrix. The element at (r, c) lives at
// Data[r*Stride+c]. A Mat may be a view into a larger matrix, in which
// case Stride > Cols.
type Mat[T Elem] struct {
	Rows, Cols int
	Stride     int
	Data       []T
}

// Matrix is the host-side float32 matrix.
type Matrix = Mat[float32]

// newMat allocates a zeroed rows x cols matrix with a compact layout.
func newMat[T Elem](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Stride: cols, Data: make([]T, rows*cols)}
}

// New allocates a zeroed rows x cols float32 matrix.
func New(rows, cols int) *Matrix { return newMat[float32](rows, cols) }

// FromSlice wraps data (row-major, len rows*cols) in a Matrix without
// copying. It panics if the slice is too short.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) < rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice needs %d elements, got %d", rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: data[:rows*cols]}
}

// At returns the element at (r, c).
func (m *Mat[T]) At(r, c int) T { return m.Data[r*m.Stride+c] }

// Set assigns the element at (r, c).
func (m *Mat[T]) Set(r, c int, v T) { m.Data[r*m.Stride+c] = v }

// Row returns row r as a slice sharing storage with m.
func (m *Mat[T]) Row(r int) []T { return m.Data[r*m.Stride : r*m.Stride+m.Cols] }

// IsCompact reports whether the matrix occupies contiguous storage.
func (m *Mat[T]) IsCompact() bool { return m.Stride == m.Cols }

// Elems returns the number of logical elements (Rows*Cols).
func (m *Mat[T]) Elems() int { return m.Rows * m.Cols }

// Flat returns m as one row of all its elements when its storage is
// compact, and m unchanged when it is a strided view, so a pass over
// every element runs one loop instead of one per row (a 65536x10
// operand would otherwise pay a loop set-up every ten elements). Row r
// of the flat form covers elements r*f.Cols onward of any compact
// matrix of m's shape, which is how a pass indexes its destination.
func (m *Mat[T]) Flat() Mat[T] {
	if m.Stride != m.Cols || m.Rows <= 1 {
		return *m
	}
	n := m.Rows * m.Cols
	return Mat[T]{Rows: 1, Cols: n, Stride: n, Data: m.Data[:n]}
}

// Bytes returns the storage footprint of the logical elements: 4 bytes
// each for float32, 1 for the int8 device layout.
func (m *Mat[T]) Bytes() int {
	var z T
	return m.Elems() * int(unsafe.Sizeof(z))
}

// View returns an (rows x cols) sub-matrix view rooted at (r0, c0)
// sharing storage with m. It panics if the view exceeds m's bounds.
func (m *Mat[T]) View(r0, c0, rows, cols int) *Mat[T] {
	if r0 < 0 || c0 < 0 || rows < 0 || cols < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d)+%dx%d out of bounds of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols))
	}
	if rows == 0 || cols == 0 {
		return &Mat[T]{Rows: rows, Cols: cols, Stride: m.Stride} // an empty window takes no data
	}
	off := r0*m.Stride + c0
	return &Mat[T]{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[off : off+(rows-1)*m.Stride+cols]}
}

// Clone returns a compact deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	out := newMat[T](m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// CopyFrom copies src's elements into m. Shapes must match.
func (m *Mat[T]) CopyFrom(src *Mat[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		copy(m.Row(r), src.Row(r))
	}
}

// Fill sets every element to v.
func (m *Mat[T]) Fill(v T) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = v
		}
	}
}

// Zero clears the matrix.
func (m *Mat[T]) Zero() { m.Fill(0) }

// Pad returns a compact (rows x cols) copy of m zero-padded on the
// bottom/right, reproducing the Edge TPU compiler behaviour of padding
// inputs to the hardware tile shape (paper section 3.3).
func (m *Mat[T]) Pad(rows, cols int) *Mat[T] {
	if rows < m.Rows || cols < m.Cols {
		panic(fmt.Sprintf("tensor: Pad target %dx%d smaller than %dx%d", rows, cols, m.Rows, m.Cols))
	}
	out := newMat[T](rows, cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r)[:m.Cols], m.Row(r))
	}
	return out
}

// Transpose returns a compact transposed copy.
func (m *Mat[T]) Transpose() *Mat[T] {
	out := newMat[T](m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

// Equal reports exact element-wise equality of shape and contents.
func (m *Mat[T]) Equal(o *Mat[T]) bool {
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

// MinMax returns the minimum and maximum element values. It returns
// (0, 0) for an empty matrix.
func (m *Mat[T]) MinMax() (min, max T) {
	if m.Elems() == 0 {
		return 0, 0
	}
	min, max = m.At(0, 0), m.At(0, 0)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for _, v := range row {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	return min, max
}

// Scale multiplies every element by s in place.
func (m *Mat[T]) Scale(s T) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] *= s
		}
	}
}

// ShapeOnly returns a matrix descriptor with no backing storage, used
// by timing-only simulation paths that charge virtual time from
// geometry alone. Accessing elements of a shape-only matrix panics;
// Rows/Cols/Elems/Bytes are valid.
func ShapeOnly(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols}
}

// IsShapeOnly reports whether the matrix has no backing storage.
func (m *Mat[T]) IsShapeOnly() bool { return m.Data == nil && m.Rows*m.Cols > 0 }

// Span is one tile's geometry, touching no data: View(R0, C0, Rows,
// Cols) over a span yields the tile itself.
type Span struct {
	R0, C0, Rows, Cols int
}

// TileSpans partitions a rows x cols shape into tileR x tileC spans
// (edge spans may be smaller) in row-major tile order. This is the
// partitioning step the Tensorizer applies before instruction
// rewriting (paper section 6.2.1).
func TileSpans(rows, cols, tileR, tileC int) []Span {
	if tileR <= 0 || tileC <= 0 {
		panic("tensor: non-positive tile shape")
	}
	var spans []Span
	for r := 0; r < rows; r += tileR {
		h := tileR
		if r+h > rows {
			h = rows - r
		}
		for c := 0; c < cols; c += tileC {
			w := tileC
			if c+w > cols {
				w = cols - c
			}
			spans = append(spans, Span{R0: r, C0: c, Rows: h, Cols: w})
		}
	}
	return spans
}

// String renders small matrices for debugging; large matrices render as
// a shape summary.
func (m *Mat[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprint(m.At(r, c))
		}
	}
	return s + "]"
}

// MAPE returns the mean absolute percentage error of got versus want,
// as a fraction (0.01 == 1%). Elements where want is (near) zero are
// compared against the mean absolute reference value instead, the
// standard guard the paper's error metrics require for matrices that
// legitimately contain zeros (e.g. triangular factors in LUD).
func MAPE(want, got *Matrix) float64 {
	if want.Rows != got.Rows || want.Cols != got.Cols {
		panic("tensor: MAPE shape mismatch")
	}
	n := want.Elems()
	if n == 0 {
		return 0
	}
	var refMean float64
	for r := 0; r < want.Rows; r++ {
		for _, v := range want.Row(r) {
			refMean += math.Abs(float64(v))
		}
	}
	refMean /= float64(n)
	if refMean == 0 {
		refMean = 1
	}
	var sum float64
	for r := 0; r < want.Rows; r++ {
		w, g := want.Row(r), got.Row(r)
		for i := range w {
			den := math.Abs(float64(w[i]))
			if den < 1e-6*refMean {
				den = refMean
			}
			sum += math.Abs(float64(g[i])-float64(w[i])) / den
		}
	}
	return sum / float64(n)
}

// RMSE returns the root-mean-square error of got versus want,
// normalized by the RMS magnitude of want so that it is comparable
// across value ranges (fraction, 0.01 == 1%), matching how Table 4/5
// report "RMSE" percentages.
func RMSE(want, got *Matrix) float64 {
	if want.Rows != got.Rows || want.Cols != got.Cols {
		panic("tensor: RMSE shape mismatch")
	}
	n := want.Elems()
	if n == 0 {
		return 0
	}
	var se, ref float64
	for r := 0; r < want.Rows; r++ {
		w, g := want.Row(r), got.Row(r)
		for i := range w {
			d := float64(g[i]) - float64(w[i])
			se += d * d
			ref += float64(w[i]) * float64(w[i])
		}
	}
	if ref == 0 {
		if se == 0 {
			return 0
		}
		return math.Sqrt(se / float64(n))
	}
	return math.Sqrt(se / ref)
}
