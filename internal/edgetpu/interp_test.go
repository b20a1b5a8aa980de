package edgetpu

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func modelOf(t *testing.T, m *tensor.Matrix) *model.Model {
	t.Helper()
	p := quant.ParamsFor(m)
	return model.FromI8(quant.QuantizeWith(m, p), p.Scale)
}

func execute(t *testing.T, op isa.OpCode, p InstrParams, operands ...*model.Model) *model.Model {
	t.Helper()
	pkt, err := EncodeInstruction(op, p, operands...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interpreter{}.Execute(pkt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := model.Decode(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInstructionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := modelOf(t, tensor.RandUniform(rng, 12, 9, -5, 5))
	b := modelOf(t, tensor.RandUniform(rng, 12, 9, -5, 5))
	pkt, err := EncodeInstruction(isa.Mul, InstrParams{StrideR: 2, StrideC: 3, RequantDivisor: 127}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	op, p, operands, err := decodeInstruction(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if op != isa.Mul || p.StrideR != 2 || p.StrideC != 3 || p.RequantDivisor != 127 {
		t.Fatalf("decoded %v %+v", op, p)
	}
	if len(operands) != 2 || !operands[0].Data.Equal(a.Data) || operands[1].Scale != b.Scale {
		t.Fatal("operand mismatch")
	}
}

func TestInterpreterPairwiseMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	am := tensor.RandUniform(rng, 20, 20, -4, 4)
	bm := tensor.RandUniform(rng, 20, 20, -4, 4)
	// Joint scale for add/sub.
	joint := quant.ParamsFor(am)
	if p2 := quant.ParamsFor(bm); p2.Scale < joint.Scale {
		joint = p2
	}
	a := model.FromI8(quant.QuantizeWith(am, joint), joint.Scale)
	b := model.FromI8(quant.QuantizeWith(bm, joint), joint.Scale)

	out := execute(t, isa.Add, InstrParams{RequantDivisor: 2}, a, b)
	// Dequantized result must match a + b within quantization error.
	got := quant.Dequantize(out.Data, quant.Params{Scale: out.Scale})
	ref := tensor.New(20, 20)
	for i := range ref.Data {
		ref.Data[i] = am.Data[i] + bm.Data[i]
	}
	if e := tensor.RMSE(ref, got); e > 0.03 {
		t.Fatalf("add through wire RMSE %v", e)
	}
}

func TestInterpreterConvMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := modelOf(t, tensor.RandUniform(rng, 16, 16, 0, 8))
	k := modelOf(t, tensor.FromSlice(3, 3, []float32{
		0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1}))
	out := execute(t, isa.Conv2D, InstrParams{StrideR: 1, StrideC: 1, RequantDivisor: 256}, in, k)
	direct := Conv2D(in.Data, []*tensor.MatrixI8{k.Data}, 1, 1)[0]
	for r := 0; r < out.Rows; r++ {
		for c := 0; c < out.Cols; c++ {
			want := quant.SaturateI8(quant.NewDivider(256).RoundDiv(direct.At(r, c)))
			if out.Data.At(r, c) != want {
				t.Fatalf("(%d,%d): wire %d vs direct %d", r, c, out.Data.At(r, c), want)
			}
		}
	}
	// And the scale metadata must invert the requantization.
	if math.Abs(float64(out.Scale-(in.Scale*k.Scale)/256)) > 1e-9 {
		t.Fatalf("scale %v", out.Scale)
	}
}

func TestInterpreterFullyConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := modelOf(t, tensor.RandUniform(rng, 8, 6, -2, 2))
	x := modelOf(t, tensor.RandUniform(rng, 1, 6, -1, 1))
	out := execute(t, isa.FullyConnected, InstrParams{RequantDivisor: 1024}, w, x)
	if out.Rows != 1 || out.Cols != 8 {
		t.Fatalf("FC output %dx%d", out.Rows, out.Cols)
	}
	direct := fullyConnected(w.Data, x.Data.Row(0))
	for i, v := range direct {
		if out.Data.At(0, i) != quant.SaturateI8(quant.NewDivider(1024).RoundDiv(v)) {
			t.Fatalf("FC elem %d mismatch", i)
		}
	}
}

func TestInterpreterCropExtMeanMaxTanhReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	am := tensor.RandUniform(rng, 10, 10, -3, 3)
	a := modelOf(t, am)

	crop := execute(t, isa.Crop, InstrParams{R0: 2, C0: 3, Rows: 4, Cols: 5}, a)
	if crop.Rows != 4 || crop.Cols != 5 || crop.Data.At(0, 0) != a.Data.At(2, 3) {
		t.Fatal("crop through wire wrong")
	}
	ext := execute(t, isa.Ext, InstrParams{Rows: 12, Cols: 12}, a)
	if ext.Rows != 12 || ext.Data.At(11, 11) != 0 {
		t.Fatal("ext through wire wrong")
	}
	mean := execute(t, isa.Mean, InstrParams{}, a)
	if mean.Rows != 1 || mean.Cols != 1 {
		t.Fatal("mean shape")
	}
	max := execute(t, isa.Max, InstrParams{}, a)
	if max.Data.At(0, 0) != MaxVal(a.Data) {
		t.Fatal("max through wire wrong")
	}
	th := execute(t, isa.Tanh, InstrParams{}, a)
	if th.Scale != quant.QMax {
		t.Fatalf("tanh output scale %v", th.Scale)
	}
	re := execute(t, isa.ReLU, InstrParams{}, a)
	for i, v := range re.Data.Data {
		if v < 0 {
			t.Fatalf("relu output %d negative at %d", v, i)
		}
	}
}

func TestInterpreterErrors(t *testing.T) {
	a := model.FromI8(tensor.NewI8(4, 4), 1)
	b := model.FromI8(tensor.NewI8(4, 5), 1)
	cases := []struct {
		op isa.OpCode
		p  InstrParams
		ms []*model.Model
	}{
		{isa.Add, InstrParams{}, []*model.Model{a, b}},                             // shape mismatch
		{isa.Add, InstrParams{}, []*model.Model{a}},                                // operand count
		{isa.Crop, InstrParams{R0: 3, C0: 3, Rows: 4, Cols: 4}, []*model.Model{a}}, // out of bounds
		{isa.Ext, InstrParams{Rows: 2, Cols: 2}, []*model.Model{a}},                // shrinking ext
		{isa.FullyConnected, InstrParams{}, []*model.Model{a, b}},                  // vector not 1xN
	}
	for i, c := range cases {
		pkt, err := EncodeInstruction(c.op, c.p, c.ms...)
		if err != nil {
			continue // encode-level rejection also counts
		}
		if _, err := (Interpreter{}).Execute(pkt); !errors.Is(err, errBadInstruction) {
			t.Errorf("case %d: want errBadInstruction, got %v", i, err)
		}
	}
}

func TestAddRequiresJointScale(t *testing.T) {
	a := model.FromI8(tensor.NewI8(2, 2), 1)
	b := model.FromI8(tensor.NewI8(2, 2), 2)
	pkt, err := EncodeInstruction(isa.Add, InstrParams{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Interpreter{}).Execute(pkt); err == nil {
		t.Fatal("mismatched scales must be rejected")
	}
}

func TestEncodeInstructionValidation(t *testing.T) {
	a := model.FromI8(tensor.NewI8(2, 2), 1)
	if _, err := EncodeInstruction(isa.OpCode(99), InstrParams{}, a); err == nil {
		t.Fatal("invalid opcode must be rejected")
	}
	if _, err := EncodeInstruction(isa.Add, InstrParams{}); err == nil {
		t.Fatal("zero operands must be rejected")
	}
}

// Property: the decoder never panics on arbitrary bytes and always
// errors (random bytes are vanishingly unlikely to be valid).
func TestQuickDecodeInstructionRobust(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("decodeInstruction panicked")
			}
		}()
		_, _, _, _ = decodeInstruction(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode is lossless for random operands.
func TestQuickInstructionRoundTrip(t *testing.T) {
	f := func(seed int64, sr, sc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.RandUniform(rng, int(sr)%10+1, int(sc)%10+1, -9, 9)
		p := quant.ParamsFor(m)
		mod := model.FromI8(quant.QuantizeWith(m, p), p.Scale)
		pkt, err := EncodeInstruction(isa.ReLU, InstrParams{StrideR: int(sr), StrideC: int(sc)}, mod)
		if err != nil {
			return false
		}
		op, pp, ops, err := decodeInstruction(pkt)
		if err != nil || op != isa.ReLU || pp.StrideR != int(sr) || pp.StrideC != int(sc) {
			return false
		}
		return len(ops) == 1 && ops[0].Data.Equal(mod.Data) && ops[0].Scale == mod.Scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInterpreterEveryOpcode drives one instruction of every opcode
// through the byte-level packet format and the device interpreter —
// the check the paper's reverse engineering enabled ("we
// reverse-engineered the Edge TPU model formats by creating models
// with different inputs"). The per-opcode tests above check values;
// this one checks that no opcode is missing from the wire path.
func TestInterpreterEveryOpcode(t *testing.T) {
	filled := func(rows, cols int, v float32) *model.Model {
		m := tensor.New(rows, cols)
		m.Fill(v)
		return modelOf(t, m)
	}
	a := filled(8, 8, 3)
	b := filled(8, 8, 2)
	k := filled(2, 2, 1)
	x := filled(1, 8, 1)
	// Add and Sub need both operands at one joint scale.
	joint := model.FromI8(quant.QuantizeWith(b.ToMatrix(), quant.Params{Scale: a.Scale}), a.Scale)

	cases := []struct {
		op       isa.OpCode
		p        InstrParams
		operands []*model.Model
	}{
		{isa.Conv2D, InstrParams{StrideR: 1, StrideC: 1, RequantDivisor: 16}, []*model.Model{a, k}},
		{isa.FullyConnected, InstrParams{RequantDivisor: 1024}, []*model.Model{a, x}},
		{isa.Add, InstrParams{RequantDivisor: 2}, []*model.Model{a, joint}},
		{isa.Sub, InstrParams{RequantDivisor: 2}, []*model.Model{a, joint}},
		{isa.Mul, InstrParams{RequantDivisor: 127}, []*model.Model{a, b}},
		{isa.Crop, InstrParams{R0: 1, C0: 1, Rows: 4, Cols: 4}, []*model.Model{a}},
		{isa.Ext, InstrParams{Rows: 16, Cols: 16}, []*model.Model{a}},
		{isa.Mean, InstrParams{}, []*model.Model{a}},
		{isa.Max, InstrParams{}, []*model.Model{a}},
		{isa.Tanh, InstrParams{}, []*model.Model{a}},
		{isa.ReLU, InstrParams{}, []*model.Model{a}},
	}
	seen := map[isa.OpCode]bool{}
	for _, c := range cases {
		seen[c.op] = true
		t.Run(c.op.String(), func(t *testing.T) {
			execute(t, c.op, c.p, c.operands...)
		})
	}
	for _, op := range isa.AllOps() {
		if !seen[op] {
			t.Errorf("opcode %v has no wire-path case", op)
		}
	}
}
