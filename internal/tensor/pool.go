package tensor

import (
	"math/bits"
	"sync"
)

// The recycler: one size-classed free list per element type, serving
// every pooled buffer of the runtime. The dispatch engine's functional
// closures consume scratch matrices per instruction (int32
// accumulators, requantized int8 tiles), operators aggregate device
// partials in int64 scratch, the serving path holds host-side float32
// matrices (operands decoded off the wire, the micro-batcher's stacked
// activations, results whose only reader is the reply encoder), and
// the wire path reads and encodes frames in byte buffers. At paper
// tile shapes a steady-state stream retires thousands of instructions
// per second, so allocating those buffers fresh would make the garbage
// collector a hot-path participant.
//
// A pooled buffer is a *Mat[T] with a compact layout whose capacity is
// a power of two between 1<<minPoolBits and 1<<maxPoolBits elements;
// the header travels with its storage, so neither Get nor Put
// allocates. A byte or int64 buffer is a 1 x n Mat.
//
// Ownership rules (see DESIGN.md "Kernel substrate" and "Buffer
// ownership on the request path"):
//
//   - Only Put what Get, GetForOverwrite or a New constructor
//     returned. Put cannot tell a full-width row view (Stride == Cols)
//     from a compact matrix, so putting one would recycle storage its
//     parent still uses. Put does refuse what it can detect — nil, a
//     strided view (Stride != Cols), a capacity that is not a size
//     class — as a silent no-op. A matrix wrapping memory the caller
//     does not own (FromSlice over user data) must not be Put.
//   - A Get'd matrix is owned by the caller until it calls Put. Put
//     transfers ownership back to the recycler: the caller must not
//     touch the matrix (or any view of it) afterwards.
//   - Put is always optional. A matrix that escapes (returned to user
//     code, cached, encoded) is simply dropped and collected normally.
//     For float32 matrices that is the rule, not the exception:
//     anything retained (a batch group's weights, a cached weight
//     buffer) or decoded for a caller outside the owning package
//     (Client.Call results) is never Put. A library caller done with
//     an operator result hands it to its context's free list with
//     Context.Release (internal/core), not to the recycler.
//   - Get returns fully zeroed logical contents, exactly like New,
//     so pooled and fresh matrices are interchangeable.
//     GetForOverwrite skips the zeroing pass and may hold stale
//     contents: it is only for callers that store every logical
//     element before reading any.
//   - Sizes of 0 and above 1<<maxPoolBits elements are allocated
//     exactly and never recycle.
const (
	// minPoolBits is the smallest recycled capacity (64 elements):
	// below that, allocation is cheaper than pool bookkeeping.
	minPoolBits = 6
	// maxPoolBits caps recycled capacity at 1<<24 elements (16 Mi), so
	// a single huge matrix cannot pin large buffers in every pool
	// bucket indefinitely.
	maxPoolBits = 24
)

// classes holds one element type's free lists: bucket b holds *Mat[T]
// with cap(Data) == 1<<b.
type classes [maxPoolBits + 1]sync.Pool

var i8Pools, i32Pools, f32Pools, bytePools, i64Pools classes

// poolsOf returns T's free lists. It switches on a nil *T, which an
// interface holds without allocating; Elem is closed, so the default
// arm is int64.
func poolsOf[T Elem]() *classes {
	switch any((*T)(nil)).(type) {
	case *int8:
		return &i8Pools
	case *int32:
		return &i32Pools
	case *float32:
		return &f32Pools
	case *byte:
		return &bytePools
	default:
		return &i64Pools
	}
}

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

// Get returns a zeroed rows x cols matrix, recycled when a buffer of
// its size class is pooled.
func Get[T Elem](rows, cols int) *Mat[T] {
	m, recycled := get[T](rows, cols)
	if recycled {
		clear(m.Data)
	}
	return m
}

// GetForOverwrite is Get without the zeroing pass: the returned matrix
// may hold stale contents, so it is only for callers that overwrite
// every logical element before reading any (a crop copy, a LUT
// application, a frame body read off a socket). Saves one full memory
// sweep per buffer on the hot path.
func GetForOverwrite[T Elem](rows, cols int) *Mat[T] {
	m, _ := get[T](rows, cols)
	return m
}

// get hands out a rows x cols matrix and reports whether it came from
// a free list (and so may hold stale contents).
func get[T Elem](rows, cols int) (*Mat[T], bool) {
	n := rows * cols
	b := poolBucket(n)
	if b < 0 {
		return newMat[T](rows, cols), false
	}
	m, _ := poolsOf[T]()[b].Get().(*Mat[T])
	if m == nil {
		return &Mat[T]{Rows: rows, Cols: cols, Stride: cols, Data: make([]T, n, 1<<b)}, false
	}
	m.Rows, m.Cols, m.Stride = rows, cols, cols
	m.Data = m.Data[:n]
	return m, true
}

// Put hands m back to its size class; see the ownership rules above.
// After a Put the caller must not use m again.
func Put[T Elem](m *Mat[T]) {
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
	poolsOf[T]()[b].Put(m)
}

// PutI8 is Put for int8 matrices.
func PutI8(m *MatrixI8) { Put(m) }

// PutI32 is Put for int32 matrices.
func PutI32(m *MatrixI32) { Put(m) }

// GetF32Exact is GetForOverwrite for a float32 matrix that will
// probably never come back — an operator result, which belongs to
// whoever called the operator. It never over-allocates: only when
// rows*cols is itself a pool capacity does the matrix come from (and
// fit back into) the pool; any other size is allocated exactly, as New
// would, and does not recycle. Library callers thus pay for exactly
// the result they keep, while a caller that does return power-of-two
// results (the serving daemon) still gets them back.
func GetF32Exact(rows, cols int) *Matrix {
	if n := rows * cols; n >= 1<<minPoolBits && n&(n-1) == 0 {
		return GetForOverwrite[float32](rows, cols)
	}
	return New(rows, cols)
}
