package tensor

import (
	"math/bits"
	"sync"
)

// Tile-buffer pools. The dispatch engine's functional closures consume
// one or more scratch matrices per instruction (wide accumulators,
// requantized int8 tiles); at paper tile shapes a steady-state GEMM
// stream retires thousands of instructions per second, so allocating
// those buffers fresh makes the garbage collector a hot-path
// participant. GetI8/GetI32 hand out recycled matrices from bucketed
// sync.Pools instead. The float32 arm (GetF32ForOverwrite/PutF32) does
// the same for the serving path's host-side matrices: operands decoded
// off the wire, the micro-batcher's stacked activations, and operator
// results whose only reader is the reply encoder.
//
// Ownership rules (see DESIGN.md "Kernel substrate" and "Buffer
// ownership on the request path"):
//
//   - A Get'd matrix is owned by the caller until it calls Put. Put
//     transfers ownership back to the pool: the caller must not touch
//     the matrix (or any view of it) afterwards.
//   - Put is always optional. A matrix that escapes (returned to user
//     code, cached, encoded) is simply dropped and collected normally.
//     For float32 matrices that is the rule, not the exception:
//     anything retained (a batch group's weights, a cached weight
//     buffer) or decoded for a caller outside the owning package
//     (Client.Call results) is never Put. A library caller done with
//     an operator result hands it to its context's free list with
//     Context.Release (internal/core), not to these pools.
//   - Only compact matrices recycle. Put on a view (Stride != Cols) or
//     on a matrix whose backing array is not pool-shaped (capacity not
//     a power of two in the pooled range) is a silent no-op, so callers
//     never need to track provenance. A matrix wrapping memory the
//     caller does not own (FromSlice over user data) must not be Put.
//   - Get returns fully zeroed logical contents, exactly like NewI8 /
//     NewI32, so pooled and fresh matrices are interchangeable. The
//     ForOverwrite variants skip the zeroing pass and may hold stale
//     contents: they are only for callers that store every logical
//     element before reading any. The float32 arm has only that
//     variant — every user overwrites the whole matrix.
const (
	// minPoolBits is the smallest recycled capacity (64 elements):
	// below that, allocation is cheaper than pool bookkeeping.
	minPoolBits = 6
	// maxPoolBits caps recycled capacity at 1<<24 elements (16 Mi), so
	// a single huge matrix cannot pin large buffers in every pool
	// bucket indefinitely.
	maxPoolBits = 24
)

var (
	i8Pools  [maxPoolBits + 1]sync.Pool // bucket b holds *MatrixI8 with cap(Data) == 1<<b
	i32Pools [maxPoolBits + 1]sync.Pool // bucket b holds *MatrixI32 with cap(Data) == 1<<b
	f32Pools [maxPoolBits + 1]sync.Pool // bucket b holds *Matrix with cap(Data) == 1<<b
)

// poolBucket returns the bucket index whose capacity 1<<b is the
// smallest that fits n elements, or -1 when n is outside the pooled
// range.
func poolBucket(n int) int {
	if n <= 0 || n > 1<<maxPoolBits {
		return -1
	}
	b := bits.Len(uint(n - 1))
	if b < minPoolBits {
		b = minPoolBits
	}
	return b
}

// GetI8 returns a zeroed rows x cols int8 matrix, recycled from the
// pool when a buffer of suitable capacity is available.
func GetI8(rows, cols int) *MatrixI8 {
	n := rows * cols
	b := poolBucket(n)
	if b < 0 {
		return NewI8(rows, cols)
	}
	m, _ := i8Pools[b].Get().(*MatrixI8)
	if m == nil {
		return &MatrixI8{Rows: rows, Cols: cols, Stride: cols, Data: make([]int8, n, 1<<b)}
	}
	m.Rows, m.Cols, m.Stride = rows, cols, cols
	m.Data = m.Data[:n]
	clear(m.Data)
	return m
}

// GetI8ForOverwrite is GetI8 without the zeroing pass: the returned
// matrix may hold stale contents, so it is only for callers that
// overwrite every logical element before reading any (a crop copy, a
// LUT application). Saves one full memory sweep per tile on the hot
// path.
func GetI8ForOverwrite(rows, cols int) *MatrixI8 {
	n := rows * cols
	b := poolBucket(n)
	if b < 0 {
		return NewI8(rows, cols)
	}
	m, _ := i8Pools[b].Get().(*MatrixI8)
	if m == nil {
		return &MatrixI8{Rows: rows, Cols: cols, Stride: cols, Data: make([]int8, n, 1<<b)}
	}
	m.Rows, m.Cols, m.Stride = rows, cols, cols
	m.Data = m.Data[:n]
	return m
}

// GetI32ForOverwrite is GetI32 without the zeroing pass; same contract
// as GetI8ForOverwrite.
func GetI32ForOverwrite(rows, cols int) *MatrixI32 {
	n := rows * cols
	b := poolBucket(n)
	if b < 0 {
		return NewI32(rows, cols)
	}
	m, _ := i32Pools[b].Get().(*MatrixI32)
	if m == nil {
		return &MatrixI32{Rows: rows, Cols: cols, Stride: cols, Data: make([]int32, n, 1<<b)}
	}
	m.Rows, m.Cols, m.Stride = rows, cols, cols
	m.Data = m.Data[:n]
	return m
}

// PutI8 returns m to the pool. Safe to call with nil, views, or
// foreign matrices (no-op); after a successful Put the caller must not
// use m again.
func PutI8(m *MatrixI8) {
	if m == nil || m.Stride != m.Cols || m.Data == nil {
		return
	}
	c := cap(m.Data)
	if c&(c-1) != 0 { // only pool-shaped (power-of-two) capacities recycle
		return
	}
	b := bits.Len(uint(c)) - 1
	if b < minPoolBits || b > maxPoolBits {
		return
	}
	m.Data = m.Data[:c]
	i8Pools[b].Put(m)
}

// GetI32 returns a zeroed rows x cols int32 matrix, recycled from the
// pool when a buffer of suitable capacity is available.
func GetI32(rows, cols int) *MatrixI32 {
	n := rows * cols
	b := poolBucket(n)
	if b < 0 {
		return NewI32(rows, cols)
	}
	m, _ := i32Pools[b].Get().(*MatrixI32)
	if m == nil {
		return &MatrixI32{Rows: rows, Cols: cols, Stride: cols, Data: make([]int32, n, 1<<b)}
	}
	m.Rows, m.Cols, m.Stride = rows, cols, cols
	m.Data = m.Data[:n]
	clear(m.Data)
	return m
}

// PutI32 returns m to the pool. Same contract as PutI8.
func PutI32(m *MatrixI32) {
	if m == nil || m.Stride != m.Cols || m.Data == nil {
		return
	}
	c := cap(m.Data)
	if c&(c-1) != 0 {
		return
	}
	b := bits.Len(uint(c)) - 1
	if b < minPoolBits || b > maxPoolBits {
		return
	}
	m.Data = m.Data[:c]
	i32Pools[b].Put(m)
}

// GetF32ForOverwrite returns a rows x cols float32 matrix whose
// contents are unspecified, recycled from the pool when a buffer of
// suitable capacity is available; same contract as GetI8ForOverwrite.
func GetF32ForOverwrite(rows, cols int) *Matrix {
	n := rows * cols
	b := poolBucket(n)
	if b < 0 {
		return New(rows, cols)
	}
	m, _ := f32Pools[b].Get().(*Matrix)
	if m == nil {
		return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, n, 1<<b)}
	}
	m.Rows, m.Cols, m.Stride = rows, cols, cols
	m.Data = m.Data[:n]
	return m
}

// GetF32Exact is GetF32ForOverwrite for a matrix that will probably
// never come back — an operator result, which belongs to whoever called
// the operator. It never over-allocates: only when rows*cols is itself
// a pool capacity does the matrix come from (and fit back into) the
// pool; any other size is allocated exactly, as New would, and does not
// recycle. Library callers thus pay for exactly the result they keep,
// while a caller that does return power-of-two results (the serving
// daemon) still gets them back.
func GetF32Exact(rows, cols int) *Matrix {
	if n := rows * cols; n >= 1<<minPoolBits && n&(n-1) == 0 {
		return GetF32ForOverwrite(rows, cols)
	}
	return New(rows, cols)
}

// PutF32 returns m to the pool. Same contract as PutI8.
func PutF32(m *Matrix) {
	if m == nil || m.Stride != m.Cols || m.Data == nil {
		return
	}
	c := cap(m.Data)
	if c&(c-1) != 0 {
		return
	}
	b := bits.Len(uint(c)) - 1
	if b < minPoolBits || b > maxPoolBits {
		return
	}
	m.Data = m.Data[:c]
	f32Pools[b].Put(m)
}
