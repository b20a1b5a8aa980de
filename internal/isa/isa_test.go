package isa

import (
	"testing"
	"testing/quick"
)

func TestOpNamesMatchPaper(t *testing.T) {
	// Table 1 spells the operators exactly like this.
	want := map[OpCode]string{
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
	if len(want) != NumOps {
		t.Fatalf("test covers %d ops, NumOps=%d", len(want), NumOps)
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("%d: %q want %q", int(op), op.String(), name)
		}
	}
	if OpCode(-1).String() == "" || OpCode(NumOps).String() == "" {
		t.Error("out-of-range opcodes must still render")
	}
}

func TestOpClassesPartition(t *testing.T) {
	// Every op belongs to exactly one behavioural class.
	for _, op := range AllOps() {
		classes := 0
		if op == Add || op == Sub || op == Mul { // pairwise
			classes++
		}
		if op.elementwise() {
			classes++
		}
		if op.MatrixWise() {
			classes++
		}
		if op.arithmetic() {
			classes++
		}
		if op == Crop || op == Ext {
			// Data-movement ops have no class predicates.
			if classes != 0 {
				t.Errorf("%v: data-movement op claims a class", op)
			}
			continue
		}
		if classes != 1 {
			t.Errorf("%v belongs to %d classes", op, classes)
		}
	}
}

func TestConv2DStrideGeometry(t *testing.T) {
	// Figure 5: stride (3,3) over 6x9 input -> 2x3 condensed output.
	in := Instruction{Op: Conv2D, InRows: 6, InCols: 9, KRows: 3, KCols: 3, StrideR: 3, StrideC: 3, Channels: 1}
	if in.OutRows() != 2 || in.OutCols() != 3 {
		t.Fatalf("condensed %dx%d", in.OutRows(), in.OutCols())
	}
	if in.Results() != 6 {
		t.Fatalf("results=%d", in.Results())
	}
	if in.MACs() != 6*9 {
		t.Fatalf("MACs=%d", in.MACs())
	}
}

func TestZeroStrideDefaultsToOne(t *testing.T) {
	in := Instruction{Op: Conv2D, InRows: 4, InCols: 4, KRows: 2, KCols: 2, Channels: 1}
	if in.OutRows() != 4 || in.OutCols() != 4 {
		t.Fatalf("unstrided output %dx%d", in.OutRows(), in.OutCols())
	}
}

func TestZeroKernelCountsOneMAC(t *testing.T) {
	in := Instruction{Op: Conv2D, InRows: 4, InCols: 4, Channels: 1}
	if in.MACs() != 16 {
		t.Fatalf("MACs=%d", in.MACs())
	}
}

// Property: results never exceed MACs for arithmetic ops (every
// result needs at least one multiply-accumulate).
func TestQuickResultsBounded(t *testing.T) {
	f := func(rows, cols, kr, kc, sr, sc, ch uint8) bool {
		in := Instruction{
			Op:     Conv2D,
			InRows: int(rows)%64 + 1, InCols: int(cols)%64 + 1,
			KRows: int(kr)%8 + 1, KCols: int(kc)%8 + 1,
			StrideR: int(sr) % 8, StrideC: int(sc) % 8,
			Channels: int(ch)%4 + 1,
		}
		return int64(in.Results()) <= in.MACs() && in.Results() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTileConstants(t *testing.T) {
	// Section 3.3: the matrix unit computes on 128x128x8-bit tiles;
	// section 6.2.1: mean/max favour 64x64.
	if ArithTile != 128 || ReduceTile != 64 {
		t.Fatal("tile constants drifted from the paper")
	}
	for _, op := range AllOps() {
		want := ArithTile
		if op.MatrixWise() {
			want = ReduceTile
		}
		if TileFor(op) != want {
			t.Errorf("TileFor(%v)=%d", op, TileFor(op))
		}
	}
}

// elementwise reports whether op computes element-by-element on a
// single matrix (tanh, ReLU). The runtime needs no such predicate; the
// partition test does.
func (op OpCode) elementwise() bool { return op == Tanh || op == ReLU }

// arithmetic reports whether op is a multiply-accumulate operator that
// follows the blocking-GEMM rewriting rule (conv2D, FullyConnected).
func (op OpCode) arithmetic() bool { return op == Conv2D || op == FullyConnected }
