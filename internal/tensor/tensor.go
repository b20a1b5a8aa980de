// Package tensor provides the dense matrix and tensor types used
// throughout the GPTPU reproduction: float32 host-side matrices, int8
// device-side matrices, views, tiling, padding, and the error metrics
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
)

// Matrix is a dense row-major float32 matrix. The element at (r, c)
// lives at Data[r*Stride+c]. A Matrix may be a view into a larger
// matrix, in which case Stride > Cols.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// New allocates a zeroed rows x cols matrix with a compact layout.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major, len rows*cols) in a Matrix without
// copying. It panics if the slice is too short.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) < rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice needs %d elements, got %d", rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: data[:rows*cols]}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Stride+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Stride+c] = v }

// Row returns row r as a slice sharing storage with m.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Stride : r*m.Stride+m.Cols] }

// IsCompact reports whether the matrix occupies contiguous storage.
func (m *Matrix) IsCompact() bool { return m.Stride == m.Cols }

// Elems returns the number of logical elements (Rows*Cols).
func (m *Matrix) Elems() int { return m.Rows * m.Cols }

// Flat returns m as one row of all its elements when its storage is
// compact, and m unchanged when it is a strided view, so a pass over
// every element runs one loop instead of one per row (a 65536x10
// operand would otherwise pay a loop set-up every ten elements). Row r
// of the flat form covers elements r*f.Cols onward of any compact
// matrix of m's shape, which is how a pass indexes its destination.
func (m *Matrix) Flat() Matrix {
	if m.Stride != m.Cols || m.Rows <= 1 {
		return *m
	}
	n := m.Rows * m.Cols
	return Matrix{Rows: 1, Cols: n, Stride: n, Data: m.Data[:n]}
}

// Bytes returns the storage footprint of the logical elements in bytes
// assuming float32 encoding. Device-side int8 footprints are computed
// by the quant package.
func (m *Matrix) Bytes() int { return m.Elems() * 4 }

// View returns an (rows x cols) sub-matrix view rooted at (r0, c0)
// sharing storage with m. It panics if the view exceeds m's bounds.
func (m *Matrix) View(r0, c0, rows, cols int) *Matrix {
	if r0 < 0 || c0 < 0 || rows < 0 || cols < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d)+%dx%d out of bounds of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols))
	}
	off := r0*m.Stride + c0
	end := off
	if rows > 0 && cols > 0 {
		end = off + (rows-1)*m.Stride + cols
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[off:end]}
}

// Clone returns a compact deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// CopyFrom copies src's elements into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		copy(m.Row(r), src.Row(r))
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = v
		}
	}
}

// Zero clears the matrix.
func (m *Matrix) Zero() { m.Fill(0) }

// Pad returns a compact (rows x cols) copy of m zero-padded on the
// bottom/right, reproducing the Edge TPU compiler behaviour of padding
// inputs to the hardware tile shape (paper section 3.3).
func (m *Matrix) Pad(rows, cols int) *Matrix {
	if rows < m.Rows || cols < m.Cols {
		panic(fmt.Sprintf("tensor: Pad target %dx%d smaller than %dx%d", rows, cols, m.Rows, m.Cols))
	}
	out := New(rows, cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r)[:m.Cols], m.Row(r))
	}
	return out
}

// Crop returns a compact copy of the (rows x cols) sub-matrix rooted at
// (r0, c0). It mirrors the Edge TPU "crop" instruction semantics
// (Table 1: remove all unwanted elements outside of a sub-matrix).
func (m *Matrix) Crop(r0, c0, rows, cols int) *Matrix {
	return m.View(r0, c0, rows, cols).Clone()
}

// Transpose returns a compact transposed copy.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

// Equal reports exact element-wise equality of shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
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
func (m *Matrix) MinMax() (min, max float32) {
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

// AbsMax returns max(|v|) over all elements (0 for empty).
func (m *Matrix) AbsMax() float32 {
	min, max := m.MinMax()
	if -min > max {
		return -min
	}
	return max
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float32) {
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
func (m *Matrix) IsShapeOnly() bool { return m.Data == nil && m.Rows*m.Cols > 0 }

// Span is tile geometry without data: the dual of Tile for
// shape-only matrices.
type Span struct {
	R0, C0, Rows, Cols int
}

// TileSpans partitions a rows x cols shape into tileR x tileC spans
// in row-major tile order, touching no data.
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

// Tile describes one sub-matrix produced by Tiles.
type Tile struct {
	R0, C0 int     // origin in the parent matrix
	M      *Matrix // view into the parent
}

// Tiles partitions m into tileR x tileC views (edge tiles may be
// smaller) in row-major tile order. This is the partitioning step the
// Tensorizer applies before instruction rewriting (paper section 6.2.1).
func (m *Matrix) Tiles(tileR, tileC int) []Tile {
	if tileR <= 0 || tileC <= 0 {
		panic("tensor: non-positive tile shape")
	}
	var tiles []Tile
	for r := 0; r < m.Rows; r += tileR {
		h := tileR
		if r+h > m.Rows {
			h = m.Rows - r
		}
		for c := 0; c < m.Cols; c += tileC {
			w := tileC
			if c+w > m.Cols {
				w = m.Cols - c
			}
			tiles = append(tiles, Tile{R0: r, C0: c, M: m.View(r, c, h, w)})
		}
	}
	return tiles
}

// String renders small matrices for debugging; large matrices render as
// a shape summary.
func (m *Matrix) String() string {
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
			s += fmt.Sprintf("%g", m.At(r, c))
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
