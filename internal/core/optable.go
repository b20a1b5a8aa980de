package core

import (
	"fmt"

	"repro/internal/tensor"
)

// Operator names one parameterless whole-matrix operator of the
// OpenCtpu set (paper section 5). The operator table below is the one
// place that gives each its operand count, its shape rule and its
// Stream call: Stream and Graph check shapes through it, and the wire
// daemon, openctpu and the graph fuzzer map their own names onto it.
// Operators with per-call parameters or a vector operand (Crop, Ext,
// Conv2DStrided, MatVec, the precise pair) keep their own entry points.
type Operator uint8

const (
	OpGemm   Operator = iota // tpuGemm: A (M×N) × B (N×K)
	OpGemmFC                 // the FullyConnected-only GEMM of section 7.1.1
	OpAdd
	OpSub
	OpMul    // pair-wise (Hadamard) product
	OpConv2D // stride-(1,1) conv2D of A by kernel B
	OpTanh
	OpReLU
	OpMean // 1×1 result
	OpMax  // 1×1 result
)

// resultKind says where an operator's result comes back: from the
// device (a graph may keep it on-chip), or aggregated by the CPU as a
// matrix or a scalar (a graph node always materializes it).
type resultKind uint8

const (
	deviceResult resultKind = iota
	hostResult
	scalarResult // a graph reduce node, read with Node.Scalar
)

// opSpec is one row of the operator table. shape returns the result
// shape over an ar×ac and a br×bc operand (zeros for a unary operator)
// and builds an error only when they do not fit, so checking a good
// call allocates nothing.
type opSpec struct {
	name   string // graph node label
	arity  int
	result resultKind
	shape  func(ar, ac, br, bc int) (rows, cols int, err error)
	call   func(s *Stream, a, b *Buffer) *tensor.Matrix
}

// operators is the operator table. init fills it because the Stream
// calls it holds check their shapes through it.
var operators [OpMax + 1]opSpec

func init() {
	operators = [...]opSpec{
		OpGemm:   {"tpuGemm", 2, deviceResult, innerDims, (*Stream).Gemm},
		OpGemmFC: {"tpuGemmFC", 2, hostResult, innerDims, (*Stream).GemmFC},
		OpAdd:    {"add", 2, deviceResult, sameShape, (*Stream).Add},
		OpSub:    {"sub", 2, deviceResult, sameShape, (*Stream).Sub},
		OpMul:    {"mul", 2, deviceResult, sameShape, (*Stream).Mul},
		OpConv2D: {"conv2D", 2, deviceResult, kernelFits, (*Stream).Conv2D},
		OpTanh:   {"tanh", 1, deviceResult, inputShape, unary((*Stream).Tanh)},
		OpReLU:   {"relu", 1, deviceResult, inputShape, unary((*Stream).ReLU)},
		OpMean:   {"mean", 1, scalarResult, nonEmpty, scalar((*Stream).Mean)},
		OpMax:    {"max", 1, scalarResult, nonEmpty, scalar((*Stream).Max)},
	}
}

// String returns the operator's graph node label.
func (op Operator) String() string { return operators[op].name }

// Arity returns how many matrix operands the operator takes: 1 or 2.
func (op Operator) Arity() int { return operators[op].arity }

// Shape returns the result shape of op over an ar×ac operand and a
// br×bc one (zeros for a unary operator), or an error naming the
// mismatch.
func (op Operator) Shape(ar, ac, br, bc int) (rows, cols int, err error) {
	return operators[op].shape(ar, ac, br, bc)
}

// mustShape is Shape where operands that do not fit are a programming
// error (Stream, Graph): it panics, naming where and op.
func (op Operator) mustShape(where string, ar, ac, br, bc int) (rows, cols int) {
	rows, cols, err := op.Shape(ar, ac, br, bc)
	if err != nil {
		panic(fmt.Sprintf("core: %s%s: %v", where, op, err))
	}
	return rows, cols
}

// Apply runs a table operator on the stream; b is nil for a unary one,
// and Mean and Max return their value as a 1×1 matrix. Like the named
// methods it returns nil on a failed stream and panics on operands that
// break the operator's shape rule.
func (s *Stream) Apply(op Operator, a, b *Buffer) *tensor.Matrix {
	return operators[op].call(s, a, b)
}

// enter admits one call of a table operator: a failed stream or a
// poisoned operand makes it a no-op (false), and operands that break
// op's shape rule panic.
func (s *Stream) enter(op Operator, a, b *Buffer) bool {
	if !s.inputs(a, b) {
		return false
	}
	var br, bc int
	if b != nil {
		br, bc = b.Rows(), b.Cols()
	}
	op.mustShape("", a.Rows(), a.Cols(), br, bc)
	return true
}

// run is op's Stream call over a graph node's resolved operands.
func (op Operator) run(s *Stream, in []*Buffer) *tensor.Matrix {
	var b *Buffer
	if len(in) > 1 {
		b = in[1]
	}
	return s.Apply(op, in[0], b)
}

func unary(f func(*Stream, *Buffer) *tensor.Matrix) func(*Stream, *Buffer, *Buffer) *tensor.Matrix {
	return func(s *Stream, a, _ *Buffer) *tensor.Matrix { return f(s, a) }
}

func scalar(f func(*Stream, *Buffer) float32) func(*Stream, *Buffer, *Buffer) *tensor.Matrix {
	return func(s *Stream, a, _ *Buffer) *tensor.Matrix {
		if v := f(s, a); s.err == nil {
			return tensor.FromSlice(1, 1, []float32{v})
		}
		return nil
	}
}

// The shape rules.

func innerDims(ar, ac, br, bc int) (int, int, error) {
	if ac != br {
		return 0, 0, fmt.Errorf("inner dimensions %d vs %d", ac, br)
	}
	return ar, bc, nil
}

func sameShape(ar, ac, br, bc int) (int, int, error) {
	if ar != br || ac != bc {
		return 0, 0, fmt.Errorf("shape mismatch %dx%d vs %dx%d", ar, ac, br, bc)
	}
	return ar, ac, nil
}

// kernelFits also checks Conv2DStrided's kernel.
func kernelFits(ar, ac, kr, kc int) (int, int, error) {
	if kr <= 0 || kc <= 0 || kr > ar || kc > ac {
		return 0, 0, fmt.Errorf("kernel %dx%d incompatible with input %dx%d", kr, kc, ar, ac)
	}
	return ar, ac, nil
}

func inputShape(ar, ac, _, _ int) (int, int, error) { return ar, ac, nil }

func nonEmpty(ar, ac, _, _ int) (int, int, error) {
	if ar <= 0 || ac <= 0 {
		return 0, 0, fmt.Errorf("empty operand %dx%d", ar, ac)
	}
	return 1, 1, nil
}
