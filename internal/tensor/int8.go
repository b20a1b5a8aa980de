package tensor

// MatrixI8 is a dense row-major int8 matrix: the on-device data layout
// of the Edge TPU (paper section 3.3: "binary-encoded 8-bit integers
// stored in row-major order").
type MatrixI8 = Mat[int8]

// MatrixI32 is the 32-bit accumulator matrix device instructions write
// before requantization. CPU-side aggregation of partial products
// operates on these wide values, which is how GPTPU "reduces precision
// loss in results" (paper section 6.2.1).
type MatrixI32 = Mat[int32]

// NewI8 allocates a zeroed rows x cols int8 matrix.
func NewI8(rows, cols int) *MatrixI8 { return newMat[int8](rows, cols) }

// NewI32 allocates a zeroed rows x cols int32 matrix.
func NewI32(rows, cols int) *MatrixI32 { return newMat[int32](rows, cols) }
