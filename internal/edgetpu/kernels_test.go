package edgetpu

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestKernelTableEquivalence drives every entry of the Fast and Ref
// dispatch tables with the same random operands and requires
// bit-identical outputs — the contract that lets the differential
// fuzzer swap whole instruction DAGs between the two substrates. This
// is also the direct coverage for refConv2DGemm and
// refFullyConnectedInto, which exist only as table entries.
func TestKernelTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		rows, cols := rng.Intn(30)+1, rng.Intn(30)+1
		a := randI8Operand(rng, rows, cols)
		b := randI8Operand(rng, rows, cols)

		for _, op := range []struct {
			name string
			fast func(x, y *tensor.MatrixI8) *tensor.MatrixI32
			ref  func(x, y *tensor.MatrixI8) *tensor.MatrixI32
		}{
			{"add", Fast.Add, Ref.Add},
			{"sub", Fast.Sub, Ref.Sub},
			{"mul", Fast.Mul, Ref.Mul},
		} {
			sameI32(t, op.name, op.fast(a, b), op.ref(a, b))
		}

		kr, kc := rng.Intn(rows)+1, rng.Intn(cols)+1
		k := randI8(rng, kr, kc)
		sr, sc := rng.Intn(3)+1, rng.Intn(3)+1
		gotC := Fast.Conv2D(a, []*tensor.MatrixI8{k}, sr, sc)
		wantC := Ref.Conv2D(a, []*tensor.MatrixI8{k}, sr, sc)
		sameI32(t, "conv2D", gotC[0], wantC[0])

		wins := randI8(rng, rng.Intn(20)+1, rng.Intn(25)+1)
		kers := randI8(rng, rng.Intn(20)+1, wins.Cols)
		sameI32(t, "conv2DGemm", Fast.Conv2DGemm(wins, kers), Ref.Conv2DGemm(wins, kers))

		vec := make([]int8, cols)
		for i := range vec {
			vec[i] = int8(rng.Intn(256) - 128)
		}
		gotFC := make([]int32, rows)
		wantFC := make([]int32, rows)
		Fast.FullyConnectedInto(gotFC, a, vec)
		Ref.FullyConnectedInto(wantFC, a, vec)
		for r := range wantFC {
			if gotFC[r] != wantFC[r] {
				t.Fatalf("fullyConnectedInto: [%d] = %d, want %d", r, gotFC[r], wantFC[r])
			}
		}

		scale := float32(rng.Intn(60)+1) / 4
		sameI8(t, "tanh", Fast.TanhLUT(a, scale), Ref.TanhLUT(a, scale))
		sameI8(t, "relu", Fast.ReLU(a), Ref.ReLU(a))

		cr, cc := rng.Intn(rows)+1, rng.Intn(cols)+1
		r0, c0 := rng.Intn(rows-cr+1), rng.Intn(cols-cc+1)
		sameI8(t, "crop", Fast.Crop(a, r0, c0, cr, cc), Ref.Crop(a, r0, c0, cr, cc))
		er, ec := rows+rng.Intn(4), cols+rng.Intn(4)
		sameI8(t, "ext", Fast.Ext(a, er, ec), Ref.Ext(a, er, ec))
	}
}
