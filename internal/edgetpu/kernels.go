package edgetpu

import "repro/internal/tensor"

// KernelTable is the functional-kernel dispatch surface: one function
// pointer per Table 1 instruction body the runtime invokes. The
// runtime normally binds Fast (the blocked/SWAR kernels of
// ops_fast.go); the differential fuzzer and any equivalence harness
// can bind Ref instead to execute an entire instruction DAG on the
// frozen naive reference kernels of ops_ref.go. Both tables implement
// identical bit-exact semantics — diverging outputs for the same
// inputs is a bug in the optimized substrate, never a tolerance.
//
// Timing is charged by the cost model before the functional body runs
// and depends only on shapes, so swapping tables must never change a
// virtual makespan.
type KernelTable struct {
	Conv2D             func(in *tensor.MatrixI8, kernels []*tensor.MatrixI8, strideR, strideC int) []*tensor.MatrixI32
	Conv2DGemm         func(wins, kers *tensor.MatrixI8) *tensor.MatrixI32
	FullyConnectedInto func(dst []int32, weights *tensor.MatrixI8, vec []int8)
	Add                func(a, b *tensor.MatrixI8) *tensor.MatrixI32
	Sub                func(a, b *tensor.MatrixI8) *tensor.MatrixI32
	Mul                func(a, b *tensor.MatrixI8) *tensor.MatrixI32
	Crop               func(in *tensor.MatrixI8, r0, c0, rows, cols int) *tensor.MatrixI8
	Ext                func(in *tensor.MatrixI8, rows, cols int) *tensor.MatrixI8
	MeanSum            func(in *tensor.MatrixI8) (sum int64, count int)
	MaxVal             func(in *tensor.MatrixI8) int8
	TanhLUT            func(in *tensor.MatrixI8, inScale float32) *tensor.MatrixI8
	ReLU               func(in *tensor.MatrixI8) *tensor.MatrixI8
}

// Fast binds the optimized kernels — the production table.
var Fast = &KernelTable{
	Conv2D:             Conv2D,
	Conv2DGemm:         Conv2DGemm,
	FullyConnectedInto: FullyConnectedInto,
	Add:                Add,
	Sub:                Sub,
	Mul:                Mul,
	Crop:               Crop,
	Ext:                Ext,
	MeanSum:            MeanSum,
	MaxVal:             MaxVal,
	TanhLUT:            TanhLUT,
	ReLU:               ReLU,
}

// Ref binds the frozen naive reference kernels — the executable
// specification, used as the differential fuzzer's second oracle.
var Ref = &KernelTable{
	Conv2D:             refConv2D,
	Conv2DGemm:         refConv2DGemm,
	FullyConnectedInto: refFullyConnectedInto,
	Add:                refAdd,
	Sub:                refSub,
	Mul:                refMul,
	Crop:               refCrop,
	Ext:                refExt,
	MeanSum:            MeanSum,
	MaxVal:             MaxVal,
	TanhLUT:            refTanhLUT,
	ReLU:               refReLU,
}
