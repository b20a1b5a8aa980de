package core

import (
	"fmt"

	"repro/internal/tensor"
)

// Operator names one whole-matrix operator of the OpenCtpu set (paper
// section 5). The operator table below is the one place that gives
// each its operand count, its shape rule and its Stream call: Stream
// and Graph check shapes through it, and the wire daemon, openctpu and
// the graph fuzzer map their own names onto it. An operator that takes
// a window, a target shape or a stride reads it from Params.
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
	OpMean          // 1×1 result
	OpMax           // 1×1 result
	OpConv2DStrided // conv2D of A by kernel B at stride (StrideR, StrideC)
	OpCrop          // the (R0,C0)+Rows×Cols window of A
	OpExt           // A zero-padded to Rows×Cols
	OpMatVec        // A (M×N) × the vector B (1×N or N×1): a 1×M result
	numOperators
)

// Params are an operator's per-call parameters; each operator reads
// only its own and ignores the rest.
type Params struct {
	R0, C0, Rows, Cols int // Crop's window; Ext's target is Rows×Cols
	StrideR, StrideC   int // Conv2DStrided's stride
}

// resultKind says where an operator's result comes back: from the
// device (a graph may keep it on-chip), or aggregated by the CPU (a
// graph node always materializes it).
type resultKind uint8

const (
	deviceResult resultKind = iota
	hostResult              // a matrix
	vectorResult            // a graph MatVec node, read with Node.Vector
	scalarResult            // a graph reduce node, read with Node.Scalar
)

// opSpec is one row of the operator table. shape returns the result
// shape over an ar×ac and a br×bc operand (zeros for a unary operator)
// and builds an error only when they do not fit, so checking a good
// call allocates nothing.
type opSpec struct {
	name     string // graph node label
	arity    int
	result   resultKind
	hostArgs uint8 // bit i: the CPU reads operand i from host memory
	shape    func(p Params, ar, ac, br, bc int) (rows, cols int, err error)
	call     func(s *Stream, p Params, a, b *Buffer) *tensor.Matrix
}

// operators is the operator table. init fills it because the Stream
// calls it holds check their shapes through it.
var operators [numOperators]opSpec

func init() {
	operators = [...]opSpec{
		OpGemm:          {"tpuGemm", 2, deviceResult, 0, innerDims, binary((*Stream).Gemm)},
		OpGemmFC:        {"tpuGemmFC", 2, hostResult, 0, innerDims, binary((*Stream).GemmFC)},
		OpAdd:           {"add", 2, deviceResult, 0, sameShape, binary((*Stream).Add)},
		OpSub:           {"sub", 2, deviceResult, 0, sameShape, binary((*Stream).Sub)},
		OpMul:           {"mul", 2, deviceResult, 0, sameShape, binary((*Stream).Mul)},
		OpConv2D:        {"conv2D", 2, deviceResult, 0, kernelFits, binary((*Stream).Conv2D)},
		OpTanh:          {"tanh", 1, deviceResult, 0, inputShape, unary((*Stream).Tanh)},
		OpReLU:          {"relu", 1, deviceResult, 0, inputShape, unary((*Stream).ReLU)},
		OpMean:          {"mean", 1, scalarResult, 0, nonEmpty, scalar((*Stream).Mean)},
		OpMax:           {"max", 1, scalarResult, 0, nonEmpty, scalar((*Stream).Max)},
		OpConv2DStrided: {"conv2DStrided", 2, deviceResult, 0, strided, conv2DStrided},
		OpCrop:          {"crop", 1, deviceResult, 0, window, crop},
		OpExt:           {"ext", 1, deviceResult, 0, padded, ext},
		OpMatVec:        {"matVec", 2, vectorResult, 1 << 1, vector, matVec},
	}
}

// String returns the operator's graph node label.
func (op Operator) String() string { return operators[op].name }

// Arity returns how many matrix operands the operator takes: 1 or 2.
func (op Operator) Arity() int { return operators[op].arity }

// Shape returns the result shape of op with parameters p over an ar×ac
// operand and a br×bc one (zeros for a unary operator), or an error
// naming the mismatch.
func (op Operator) Shape(p Params, ar, ac, br, bc int) (rows, cols int, err error) {
	return operators[op].shape(p, ar, ac, br, bc)
}

// mustShape is Shape where operands that do not fit are a programming
// error (Stream, Graph): it panics, naming where and op.
func (op Operator) mustShape(where string, p Params, ar, ac, br, bc int) (rows, cols int) {
	rows, cols, err := op.Shape(p, ar, ac, br, bc)
	if err != nil {
		panic(fmt.Sprintf("core: %s%s: %v", where, op, err))
	}
	return rows, cols
}

// Apply runs a table operator with parameters p on the stream; b is nil
// for a unary one, Mean and Max return their value as a 1×1 matrix and
// MatVec its vector as a 1×M one. Like the named methods it returns nil
// on a failed stream and panics on operands that break the operator's
// shape rule.
func (s *Stream) Apply(op Operator, p Params, a, b *Buffer) *tensor.Matrix {
	return operators[op].call(s, p, a, b)
}

// enter admits one call of a table operator: a failed stream or a
// poisoned operand makes it a no-op (false), and operands that break
// op's shape rule panic.
func (s *Stream) enter(op Operator, p Params, a, b *Buffer) bool {
	if !s.inputs(a, b) {
		return false
	}
	var br, bc int
	if b != nil {
		br, bc = b.Rows(), b.Cols()
	}
	op.mustShape("", p, a.Rows(), a.Cols(), br, bc)
	return true
}

// The Stream calls of the table.

func binary(f func(*Stream, *Buffer, *Buffer) *tensor.Matrix) func(*Stream, Params, *Buffer, *Buffer) *tensor.Matrix {
	return func(s *Stream, _ Params, a, b *Buffer) *tensor.Matrix { return f(s, a, b) }
}

func unary(f func(*Stream, *Buffer) *tensor.Matrix) func(*Stream, Params, *Buffer, *Buffer) *tensor.Matrix {
	return func(s *Stream, _ Params, a, _ *Buffer) *tensor.Matrix { return f(s, a) }
}

func scalar(f func(*Stream, *Buffer) float32) func(*Stream, Params, *Buffer, *Buffer) *tensor.Matrix {
	return func(s *Stream, _ Params, a, _ *Buffer) *tensor.Matrix {
		if v := f(s, a); s.err == nil {
			return tensor.FromSlice(1, 1, []float32{v})
		}
		return nil
	}
}

func conv2DStrided(s *Stream, p Params, a, kernel *Buffer) *tensor.Matrix {
	return s.Conv2DStrided(a, kernel, p.StrideR, p.StrideC)
}

func crop(s *Stream, p Params, a, _ *Buffer) *tensor.Matrix {
	return s.Crop(a, p.R0, p.C0, p.Rows, p.Cols)
}

func ext(s *Stream, p Params, a, _ *Buffer) *tensor.Matrix { return s.Ext(a, p.Rows, p.Cols) }

// matVec is MatVec over a vector held in a 1×N or N×1 buffer.
func matVec(s *Stream, p Params, a, x *Buffer) *tensor.Matrix {
	if !s.enter(OpMatVec, p, a, x) {
		return nil
	}
	if y := s.MatVec(a, vectorData(s.c, x.M)); s.err == nil {
		return tensor.FromSlice(1, len(y), y)
	}
	return nil
}

// The shape rules.

func innerDims(_ Params, ar, ac, br, bc int) (int, int, error) {
	if ac != br {
		return 0, 0, fmt.Errorf("inner dimensions %d vs %d", ac, br)
	}
	return ar, bc, nil
}

func sameShape(_ Params, ar, ac, br, bc int) (int, int, error) {
	if ar != br || ac != bc {
		return 0, 0, fmt.Errorf("shape mismatch %dx%d vs %dx%d", ar, ac, br, bc)
	}
	return ar, ac, nil
}

func kernelFits(_ Params, ar, ac, kr, kc int) (int, int, error) {
	if kr <= 0 || kc <= 0 || kr > ar || kc > ac {
		return 0, 0, fmt.Errorf("kernel %dx%d incompatible with input %dx%d", kr, kc, ar, ac)
	}
	return ar, ac, nil
}

func strided(p Params, ar, ac, kr, kc int) (int, int, error) {
	if p.StrideR <= 0 || p.StrideC <= 0 {
		return 0, 0, fmt.Errorf("strides must be positive (%d,%d)", p.StrideR, p.StrideC)
	}
	if _, _, err := kernelFits(p, ar, ac, kr, kc); err != nil {
		return 0, 0, err
	}
	return (ar + p.StrideR - 1) / p.StrideR, (ac + p.StrideC - 1) / p.StrideC, nil
}

func window(p Params, ar, ac, _, _ int) (int, int, error) {
	if p.R0 < 0 || p.C0 < 0 || p.Rows < 0 || p.Cols < 0 || p.R0+p.Rows > ar || p.C0+p.Cols > ac {
		return 0, 0, fmt.Errorf("window (%d,%d)+%dx%d outside %dx%d", p.R0, p.C0, p.Rows, p.Cols, ar, ac)
	}
	return p.Rows, p.Cols, nil
}

func padded(p Params, ar, ac, _, _ int) (int, int, error) {
	if p.Rows < ar || p.Cols < ac {
		return 0, 0, fmt.Errorf("target %dx%d smaller than %dx%d", p.Rows, p.Cols, ar, ac)
	}
	return p.Rows, p.Cols, nil
}

func vector(_ Params, ar, ac, xr, xc int) (int, int, error) {
	if (xr != 1 && xc != 1) || xr*xc != ac {
		return 0, 0, fmt.Errorf("vector %dx%d incompatible with matrix cols %d", xr, xc, ac)
	}
	return 1, ar, nil
}

func inputShape(_ Params, ar, ac, _, _ int) (int, int, error) { return ar, ac, nil }

func nonEmpty(_ Params, ar, ac, _, _ int) (int, int, error) {
	if ar <= 0 || ac <= 0 {
		return 0, 0, fmt.Errorf("empty operand %dx%d", ar, ac)
	}
	return 1, 1, nil
}
