// Package isa defines the Edge TPU CISC instruction set the paper
// characterizes in section 3.2 (Table 1): the opcode vocabulary, the
// canonical tile shapes each instruction favours, and the instruction
// descriptor the GPTPU runtime's back-end instruction queue (IQ)
// carries.
package isa

import "fmt"

// OpCode enumerates the Edge TPU operators/instructions of Table 1.
type OpCode int

const (
	Conv2D OpCode = iota
	FullyConnected
	Add
	Sub
	Mul
	Crop
	Ext
	Mean
	Max
	Tanh
	ReLU
	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

var opNames = [...]string{
	Conv2D:         "conv2D",
	FullyConnected: "FullyConnected",
	Add:            "add",
	Sub:            "sub",
	Mul:            "mul",
	Crop:           "crop",
	Ext:            "ext",
	Mean:           "mean",
	Max:            "max",
	Tanh:           "tanh",
	ReLU:           "ReLu",
}

// String returns the paper's spelling of the operator name.
func (op OpCode) String() string {
	if op < 0 || int(op) >= NumOps {
		return fmt.Sprintf("OpCode(%d)", int(op))
	}
	return opNames[op]
}

// AllOps lists every opcode in Table 1 order.
func AllOps() []OpCode {
	ops := make([]OpCode, NumOps)
	for i := range ops {
		ops[i] = OpCode(i)
	}
	return ops
}

// ArithTile is the optimal sub-matrix dimension for most arithmetic
// instructions: the Edge TPU matrix unit computes on 128x128x8-bit
// matrices (paper section 3.3, in contrast to the Cloud TPU's
// 256x256).
const ArithTile = 128

// ReduceTile is the optimal sub-matrix dimension for the matrix-wise
// mean and max instructions ("both instructions favor 64x64
// sub-matrices", paper section 6.2.1).
const ReduceTile = 64

// TileFor returns the optimal square tile dimension for op.
func TileFor(op OpCode) int {
	switch op {
	case Mean, Max:
		return ReduceTile
	default:
		return ArithTile
	}
}

// MatrixWise reports whether op reduces a whole matrix to a scalar
// (mean, max); these require CPU-side aggregation across tiles.
func (op OpCode) MatrixWise() bool { return op == Mean || op == Max }

// Instruction is one entry in the GPTPU back-end instruction queue: a
// single device operation on (up to) two tile operands. The Tensorizer
// produces these by partitioning OPQ tasks (paper Figure 4).
type Instruction struct {
	Op OpCode

	// Geometry of the operands, in elements. For pairwise and
	// element-wise ops InRows/InCols describe the tile; for
	// FullyConnected they describe the weight tile (the vector length
	// is InCols); for conv2D they describe the non-kernel input and
	// KRows/KCols the kernel (with optional striding and output
	// channels).
	InRows, InCols int
	KRows, KCols   int
	StrideR        int
	StrideC        int
	Channels       int // conv2D output channels (number of kernels); >= 1

	// TaskID links the instruction back to its OPQ task so the
	// scheduler can apply the same-task affinity rule of section 6.1.
	TaskID int
	// InputKey identifies the (already-transferred) input model so the
	// scheduler can recognise instructions sharing inputs.
	InputKey uint64
	// QuantFlags records the quantization method bits; instructions
	// only share a device placement when these match (section 6.1).
	QuantFlags uint32
}

// OutRows/OutCols give the result geometry of the instruction.
func (in *Instruction) OutRows() int {
	switch {
	case in.Op == FullyConnected:
		return 1
	case in.Op == Conv2D:
		s := in.StrideR
		if s <= 0 {
			s = 1
		}
		return (in.InRows + s - 1) / s
	case in.Op.MatrixWise():
		return 1
	default:
		return in.InRows
	}
}

// OutCols gives the number of result columns (see OutRows).
func (in *Instruction) OutCols() int {
	switch {
	case in.Op == FullyConnected:
		return in.InRows // one output per weight row
	case in.Op == Conv2D:
		s := in.StrideC
		if s <= 0 {
			s = 1
		}
		return ((in.InCols + s - 1) / s) * max(in.Channels, 1)
	case in.Op.MatrixWise():
		return 1
	default:
		return in.InCols
	}
}

// Results returns the number of result values the instruction
// produces, the quantity the paper's RPS metric counts.
func (in *Instruction) Results() int { return in.OutRows() * in.OutCols() }

// MACs returns the number of multiply-accumulate operations the
// instruction performs on the matrix unit. Non-arithmetic ops count
// one operation per element.
func (in *Instruction) MACs() int64 {
	switch in.Op {
	case FullyConnected:
		return int64(in.InRows) * int64(in.InCols)
	case Conv2D:
		k := int64(in.KRows) * int64(in.KCols)
		if k == 0 {
			k = 1
		}
		sr, sc := in.StrideR, in.StrideC
		if sr <= 0 {
			sr = 1
		}
		if sc <= 0 {
			sc = 1
		}
		outs := int64((in.InRows+sr-1)/sr) * int64((in.InCols+sc-1)/sc) * int64(max(in.Channels, 1))
		return outs * k
	default:
		return int64(in.InRows) * int64(in.InCols)
	}
}
