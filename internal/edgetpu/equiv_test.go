package edgetpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Randomized bit-exactness suite: every optimized kernel must produce
// results bit-identical to its ops_ref.go oracle across odd shapes,
// strided views, and windows clipped at the input's edges. Integer
// accumulation is exact and order-independent, so any divergence is a
// real bug in the blocked loops, not tolerance noise.

// randI8 fills a fresh rows x cols matrix with full-range int8 values.
func randI8(rng *rand.Rand, rows, cols int) *tensor.MatrixI8 {
	m := tensor.NewI8(rows, cols)
	for i := range m.Data {
		m.Data[i] = int8(rng.Intn(256) - 128)
	}
	return m
}

// randI8Operand returns either a compact matrix or a strided view of a
// larger one, so kernels see both memory layouts.
func randI8Operand(rng *rand.Rand, rows, cols int) *tensor.MatrixI8 {
	if rng.Intn(2) == 0 {
		return randI8(rng, rows, cols)
	}
	parent := randI8(rng, rows+rng.Intn(3)+1, cols+rng.Intn(5)+1)
	return parent.View(rng.Intn(parent.Rows-rows+1), rng.Intn(parent.Cols-cols+1), rows, cols)
}

func sameI32(t *testing.T, op string, got, want *tensor.MatrixI32) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for r := 0; r < want.Rows; r++ {
		gr, wr := got.Row(r), want.Row(r)
		for c := range wr {
			if gr[c] != wr[c] {
				t.Fatalf("%s: [%d][%d] = %d, want %d", op, r, c, gr[c], wr[c])
			}
		}
	}
}

func sameI8(t *testing.T, op string, got, want *tensor.MatrixI8) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for r := 0; r < want.Rows; r++ {
		gr, wr := got.Row(r), want.Row(r)
		for c := range wr {
			if gr[c] != wr[c] {
				t.Fatalf("%s: [%d][%d] = %d, want %d", op, r, c, gr[c], wr[c])
			}
		}
	}
}

func TestConv2DEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		inR, inC := rng.Intn(33)+1, rng.Intn(33)+1
		in := randI8Operand(rng, inR, inC)
		// Kernels may exceed the input on purpose: the instruction
		// zero-pads past the bottom/right edges.
		nch := rng.Intn(6) + 1
		kernels := make([]*tensor.MatrixI8, nch)
		kR, kC := rng.Intn(inR+2)+1, rng.Intn(inC+2)+1
		for ch := range kernels {
			if rng.Intn(4) == 0 { // occasionally mixed shapes across channels
				kernels[ch] = randI8Operand(rng, rng.Intn(inR+2)+1, rng.Intn(inC+2)+1)
			} else {
				kernels[ch] = randI8Operand(rng, kR, kC)
			}
		}
		sr, sc := rng.Intn(5), rng.Intn(5) // 0 exercises the <=0 → 1 normalization
		got := Conv2D(in, kernels, sr, sc)
		want := refConv2D(in, kernels, sr, sc)
		for ch := range kernels {
			sameI32(t, "Conv2D", got[ch], want[ch])
			tensor.Put(got[ch])
		}
	}
}

// TestConv2DEquivalenceGemmShape drives the strided general path with
// GEMM-shaped operands: kernel width == input width == column stride,
// one output column per channel (the layout Conv2DGemm's panel form
// replaced as the GEMM kernel).
func TestConv2DEquivalenceGemmShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s := rng.Intn(12) + 1
		rows := s * (rng.Intn(6) + 1)
		if rng.Intn(3) == 0 {
			rows += rng.Intn(s) // ragged bottom edge: last window clips
		}
		in := randI8(rng, rows, s)
		nch := rng.Intn(9) + 1
		kernels := make([]*tensor.MatrixI8, nch)
		for ch := range kernels {
			kernels[ch] = randI8(rng, s, s)
		}
		got := Conv2D(in, kernels, s, s)
		want := refConv2D(in, kernels, s, s)
		for ch := range kernels {
			sameI32(t, "Conv2D(gemm-shape)", got[ch], want[ch])
			tensor.Put(got[ch])
		}
	}
}

func TestConv2DGemmEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		s := rng.Intn(10) + 1
		nWin, nch := rng.Intn(17)+1, rng.Intn(17)+1
		wins := randI8(rng, nWin, s*s)
		kers := randI8(rng, nch, s*s)
		got := Conv2DGemm(wins, kers)
		// Oracle: per-channel strided conv over the stacked windows.
		stacked := &tensor.MatrixI8{Rows: nWin * s, Cols: s, Stride: s, Data: wins.Data}
		kviews := make([]*tensor.MatrixI8, nch)
		for ch := range kviews {
			kviews[ch] = &tensor.MatrixI8{Rows: s, Cols: s, Stride: s, Data: kers.Row(ch)}
		}
		want := refConv2D(stacked, kviews, s, s)
		for ch := 0; ch < nch; ch++ {
			for i := 0; i < nWin; i++ {
				if got.At(i, ch) != want[ch].At(i, 0) {
					t.Fatalf("Conv2DGemm: [%d][%d] = %d, want %d", i, ch, got.At(i, ch), want[ch].At(i, 0))
				}
			}
		}
		tensor.Put(got)
	}
}

// constI8 returns a rows x cols matrix holding v everywhere.
func constI8(rows, cols int, v int8) *tensor.MatrixI8 {
	m := tensor.NewI8(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// checkConv2DGemm requires Conv2DGemm to match the reference twin.
func checkConv2DGemm(t *testing.T, name string, wins, kers *tensor.MatrixI8) {
	t.Helper()
	got := Conv2DGemm(wins, kers)
	sameI32(t, name, got, refConv2DGemm(wins, kers))
	tensor.Put(got)
}

// checkConv2DGemmSaturated drives the lane-overflow corners: every
// biased product at its maximum (-128 x -128 biases to 0 x 0, 127 x 127
// to 255 x 255 — the 32·255² bound itself), and the mixed extremes.
func checkConv2DGemmSaturated(t *testing.T, name string, nw, nch, n int) {
	t.Helper()
	for _, v := range [][2]int8{{-128, -128}, {127, -128}, {-128, 127}, {127, 127}} {
		checkConv2DGemm(t, fmt.Sprintf("%s %dx%dx%d sat(%d,%d)", name, nw, nch, n, v[0], v[1]),
			constI8(nw, n, v[0]), constI8(nch, n, v[1]))
	}
}

// TestConv2DGemmGeometry walks the micro-kernel's edges against
// refConv2DGemm: window rows in every residue mod 3 (the packed row
// groups, including a panel shorter than one group), kernel rows in
// every residue mod 4 (the register block and its padded tail),
// compact operands and strided views, random and saturated values;
// then the one-signed geometry's edges (checkOneSignedGeometry).
func TestConv2DGemmGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// Inner dimensions around the 32-term lane chunks (one short, exact,
	// one over; the same at two chunks), the gemm_lib panel width, and
	// the longest unsegmented Gemm inner dimension.
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 512, 4300} {
		for nw := 1; nw <= 7; nw++ {
			for nch := 1; nch <= 8; nch++ {
				checkConv2DGemm(t, fmt.Sprintf("Conv2DGemm %dx%dx%d", nw, nch, n),
					randI8Operand(rng, nw, n), randI8Operand(rng, nch, n))
			}
		}
		for _, sh := range [][2]int{{1, 1}, {2, 3}, {3, 4}, {4, 5}, {5, 2}, {129, 7}} {
			checkConv2DGemmSaturated(t, "Conv2DGemm", sh[0], sh[1], n)
		}
	}
	// Degenerate panels: nothing to multiply, nothing to write.
	checkConv2DGemm(t, "Conv2DGemm 3x2x0", tensor.NewI8(3, 0), tensor.NewI8(2, 0))
	checkConv2DGemm(t, "Conv2DGemm 0x2x5", tensor.NewI8(0, 5), randI8(rng, 2, 5))
	checkConv2DGemm(t, "Conv2DGemm 3x0x5", randI8(rng, 3, 5), tensor.NewI8(0, 5))
	checkOneSignedGeometry(t, rng)
}

// nonNegI8 returns a rows x cols operand (compact or a strided view)
// holding codes 0..127 only: the quantization of [0, 1) data.
func nonNegI8(rng *rand.Rand, rows, cols int) *tensor.MatrixI8 {
	if cols == 0 {
		return tensor.NewI8(rows, 0)
	}
	m := randI8Operand(rng, rows, cols)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] &= 0x7f
		}
	}
	return m
}

// oneSigned reports whether Conv2DGemm takes the one-signed geometry
// for these panels.
func oneSigned(wins, kers *tensor.MatrixI8) bool {
	return nonNegative(kers) && packRows4(new(gemmScratch), wins)
}

// checkOneSignedGeometry walks the one-signed geometry's edges against
// refConv2DGemm: window rows in every residue mod 8 (pairs of packed
// four-row groups), inner dimensions in every residue mod 4 (the
// four-word steps between lane splits), the empty inner dimension,
// every lane at its 4·127² bound, and a dot long enough to need a
// second chunk. A single negative code in the last window row or the
// last kernel must send the panels to the biased geometry, which stays
// exact.
func checkOneSignedGeometry(t *testing.T, rng *rand.Rand) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 512, 4301} {
		for nw := 1; nw <= 9; nw++ {
			for nch := 1; nch <= 8; nch++ {
				name := fmt.Sprintf("Conv2DGemm one-signed %dx%dx%d", nw, nch, n)
				wins, kers := nonNegI8(rng, nw, n), nonNegI8(rng, nch, n)
				if !oneSigned(wins, kers) {
					t.Fatalf("%s: panels take the biased geometry", name)
				}
				checkConv2DGemm(t, name, wins, kers)
				if n == 0 {
					continue
				}
				for _, m := range []*tensor.MatrixI8{wins, kers} {
					last := m.Row(m.Rows - 1)
					at := rng.Intn(n)
					saved := last[at]
					last[at] = -1
					if oneSigned(wins, kers) {
						t.Fatalf("%s: a -1 in the last row still takes the one-signed geometry", name)
					}
					checkConv2DGemm(t, name+" with -1", wins, kers)
					last[at] = saved
				}
			}
		}
		for _, sh := range [][2]int{{1, 1}, {4, 4}, {5, 3}, {129, 7}} {
			checkConv2DGemm(t, fmt.Sprintf("Conv2DGemm one-signed %dx%dx%d all 127", sh[0], sh[1], n),
				constI8(sh[0], n, 127), constI8(sh[1], n, 127))
		}
	}
	// A 32-bit half of the lane sums holds 66 572 steps of all-127
	// products; one step more must run as two chunks to stay exact.
	n := 4 * 66573
	checkConv2DGemm(t, "Conv2DGemm one-signed long", constI8(5, n, 127), constI8(5, n, 127))
}

// TestConv2DGemmZeroTailEquivalence pins the Gemm closure's
// truncated-view optimization: when inner dimension n pads up to
// n2 = s*s, columns n..n2 of every window and kernel row are zero, and
// Conv2DGemm over views truncated to n columns must match the full
// padded computation bit-for-bit (the zero products it skips
// contribute exactly nothing to the integer accumulators). The
// truncated views are strided (row stride n2, width segN), and segN
// lands anywhere relative to the kernel's 32-term lane chunks.
func TestConv2DGemmZeroTailEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		s := rng.Intn(9) + 2
		if trial%10 == 0 {
			s = rng.Intn(14) + 10 // up to 23 x 23 = 529: many lane chunks per dot
		}
		n2 := s * s
		segN := rng.Intn(n2-1) + 1 // 1..n2-1 live columns, rest zero tail
		nWin, nch := rng.Intn(17)+1, rng.Intn(17)+1
		wins := tensor.NewI8(nWin, n2)
		kers := tensor.NewI8(nch, n2)
		for r := 0; r < nWin; r++ {
			row := wins.Row(r)
			for i := 0; i < segN; i++ {
				row[i] = int8(rng.Intn(256) - 128)
			}
		}
		for r := 0; r < nch; r++ {
			row := kers.Row(r)
			for i := 0; i < segN; i++ {
				row[i] = int8(rng.Intn(256) - 128)
			}
		}
		got := Conv2DGemm(wins.View(0, 0, nWin, segN), kers.View(0, 0, nch, segN))
		want := Conv2DGemm(wins, kers)
		sameI32(t, "zero-tail views", got, refConv2DGemm(wins.View(0, 0, nWin, segN), kers.View(0, 0, nch, segN)))
		for i := 0; i < nWin; i++ {
			for ch := 0; ch < nch; ch++ {
				if got.At(i, ch) != want.At(i, ch) {
					t.Fatalf("zero-tail trial %d: [%d][%d] = %d, want %d",
						trial, i, ch, got.At(i, ch), want.At(i, ch))
				}
			}
		}
		tensor.Put(got)
		tensor.Put(want)
	}
}

func TestFullyConnectedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		rows, cols := rng.Intn(40)+1, rng.Intn(40)+1
		w := randI8Operand(rng, rows, cols)
		vec := make([]int8, cols)
		for i := range vec {
			vec[i] = int8(rng.Intn(256) - 128)
		}
		got := fullyConnected(w, vec)
		want := refFullyConnected(w, vec)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("FullyConnected: [%d] = %d, want %d", r, got[r], want[r])
			}
		}
	}
}

func TestPairwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := []struct {
		name string
		fast func(a, b *tensor.MatrixI8) *tensor.MatrixI32
		ref  func(a, b *tensor.MatrixI8) *tensor.MatrixI32
	}{
		{"Add", Add, refAdd}, {"Sub", Sub, refSub}, {"Mul", Mul, refMul},
	}
	for trial := 0; trial < 100; trial++ {
		rows, cols := rng.Intn(30)+1, rng.Intn(30)+1
		a := randI8Operand(rng, rows, cols)
		b := randI8Operand(rng, rows, cols)
		for _, op := range ops {
			got := op.fast(a, b)
			sameI32(t, op.name, got, op.ref(a, b))
			tensor.Put(got)
		}
	}
}

func TestCropExtEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		rows, cols := rng.Intn(25)+1, rng.Intn(25)+1
		in := randI8Operand(rng, rows, cols)

		cr, cc := rng.Intn(rows)+1, rng.Intn(cols)+1
		r0, c0 := rng.Intn(rows-cr+1), rng.Intn(cols-cc+1)
		got := Crop(in, r0, c0, cr, cc)
		sameI8(t, "Crop", got, refCrop(in, r0, c0, cr, cc))
		tensor.Put(got)

		er, ec := rows+rng.Intn(8), cols+rng.Intn(8)
		gotE := Ext(in, er, ec)
		sameI8(t, "Ext", gotE, refExt(in, er, ec))
		tensor.Put(gotE)
	}
}

func TestReduceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		rows, cols := rng.Intn(40)+1, rng.Intn(300)+1
		in := randI8Operand(rng, rows, cols)

		var wantSum int64
		wantMax := in.At(0, 0)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				v := in.At(r, c)
				wantSum += int64(v)
				wantMax = max(wantMax, v)
			}
		}
		if gotSum, gotN := MeanSum(in); gotSum != wantSum || gotN != rows*cols {
			t.Fatalf("MeanSum: (%d, %d), want (%d, %d)", gotSum, gotN, wantSum, rows*cols)
		}
		if got := MaxVal(in); got != wantMax {
			t.Fatalf("MaxVal: %d, want %d", got, wantMax)
		}
	}
}

func TestActivationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		rows, cols := rng.Intn(25)+1, rng.Intn(25)+1
		in := randI8Operand(rng, rows, cols)

		scale := float32(rng.Float64()*100 + 0.5)
		gotT := TanhLUT(in, scale)
		sameI8(t, "TanhLUT", gotT, refTanhLUT(in, scale))
		tensor.Put(gotT)

		gotR := ReLU(in)
		sameI8(t, "ReLU", gotR, refReLU(in))
		tensor.Put(gotR)
	}
}

// TestEquivalenceEdgeShapes pins every optimized kernel bit-exact
// against its frozen reference twin at tile-class sizes (128- and
// 256-class) and odd-prime shapes: window rows in every residue mod 3
// (ragged row groups), kernel counts in every residue mod 4, inner
// dimensions around the 32-term lane chunk, strided views, saturated
// corners, and the tanh LUT.
func TestEquivalenceEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(101))

	// Conv2DGemm: the tpuGemm panel-dot path.
	for _, sh := range [][3]int{{128, 12, 128}, {61, 9, 67}, {5, 3, 3}, {1, 1, 1}, {7, 2, 16}} {
		nWin, s, nch := sh[0], sh[1], sh[2]
		wins, kers := randI8(rng, nWin, s*s), randI8(rng, nch, s*s)
		got := Conv2DGemm(wins, kers)
		stacked := &tensor.MatrixI8{Rows: nWin * s, Cols: s, Stride: s, Data: wins.Data}
		kviews := make([]*tensor.MatrixI8, nch)
		for ch := range kviews {
			kviews[ch] = &tensor.MatrixI8{Rows: s, Cols: s, Stride: s, Data: kers.Row(ch)}
		}
		want := refConv2D(stacked, kviews, s, s)
		for ch := 0; ch < nch; ch++ {
			for i := 0; i < nWin; i++ {
				if got.At(i, ch) != want[ch].At(i, 0) {
					t.Fatalf("Conv2DGemm: [%d][%d] = %d, want %d", i, ch, got.At(i, ch), want[ch].At(i, 0))
				}
			}
		}
		tensor.Put(got)
	}
	// Window counts in every residue mod 3 (a ragged last row group),
	// kernel counts in every residue mod 4, inner dimensions around the
	// lane chunks, strided views, and the saturated corners.
	for _, sh := range [][3]int{{128, 512, 512}, {130, 9, 529}, {131, 6, 33}, {64, 31, 4300}, {2, 2, 4096}, {7, 3, 512}} {
		nWin, nch, n := sh[0], sh[1], sh[2]
		checkConv2DGemm(t, "Conv2DGemm", randI8Operand(rng, nWin, n), randI8Operand(rng, nch, n))
	}
	checkConv2DGemmSaturated(t, "Conv2DGemm", 128, 128, 128)
	checkConv2DGemmSaturated(t, "Conv2DGemm", 65, 5, 65)

	// Conv2D: the fused 3x3 stencil, the general strided path, and odd
	// geometries.
	for _, sh := range [][4]int{{128, 128, 1, 1}, {61, 67, 1, 1}, {97, 33, 2, 3}, {3, 3, 1, 1}} {
		in := randI8Operand(rng, sh[0], sh[1])
		kernels := []*tensor.MatrixI8{randI8(rng, 3, 3), randI8(rng, 3, 3)}
		got := Conv2D(in, kernels, sh[2], sh[3])
		want := refConv2D(in, kernels, sh[2], sh[3])
		for ch := range kernels {
			sameI32(t, "Conv2D", got[ch], want[ch])
			tensor.Put(got[ch])
		}
	}

	// fullyConnected: the dot path behind GemmFC.
	for _, sh := range [][2]int{{256, 256}, {61, 67}, {3, 129}, {1, 1}} {
		w := randI8Operand(rng, sh[0], sh[1])
		vec := make([]int8, sh[1])
		for i := range vec {
			vec[i] = int8(rng.Intn(256) - 128)
		}
		got := fullyConnected(w, vec)
		want := refFullyConnected(w, vec)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("FullyConnected: [%d] = %d, want %d", r, got[r], want[r])
			}
		}
	}

	// Pairwise slabs and the COW tanh LUT.
	for _, sh := range [][2]int{{128, 128}, {63, 65}, {2, 2}} {
		a, b := randI8Operand(rng, sh[0], sh[1]), randI8(rng, sh[0], sh[1])
		for _, fn := range []struct {
			op        string
			fast, ref func(a, b *tensor.MatrixI8) *tensor.MatrixI32
		}{
			{"Add", Add, refAdd}, {"Sub", Sub, refSub}, {"Mul", Mul, refMul},
		} {
			got := fn.fast(a, b)
			sameI32(t, fn.op, got, fn.ref(a, b))
			tensor.Put(got)
		}
		scale := float32(rng.Float64()*100 + 0.5)
		gotT := TanhLUT(a, scale)
		sameI8(t, "TanhLUT", gotT, refTanhLUT(a, scale))
		tensor.Put(gotT)
	}
}

// FuzzConv2DEquiv fuzzes conv2D shape and stride parameters: the
// optimized path selection (stride-1 / general) must stay
// bit-identical to the reference for any geometry the fuzzer invents.
func FuzzConv2DEquiv(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(2))
	f.Add(int64(2), uint8(16), uint8(4), uint8(4), uint8(4), uint8(4), uint8(4), uint8(1)) // gemm shape
	f.Add(int64(3), uint8(5), uint8(7), uint8(9), uint8(9), uint8(0), uint8(0), uint8(3))  // kernel > input, stride norm
	f.Fuzz(func(t *testing.T, seed int64, inR, inC, kR, kC, sr, sc, nch uint8) {
		rows, cols := int(inR)%48+1, int(inC)%48+1
		kr, kc := int(kR)%(rows+3)+1, int(kC)%(cols+3)+1
		n := int(nch)%5 + 1
		rng := rand.New(rand.NewSource(seed))
		in := randI8Operand(rng, rows, cols)
		kernels := make([]*tensor.MatrixI8, n)
		for ch := range kernels {
			kernels[ch] = randI8Operand(rng, kr, kc)
		}
		got := Conv2D(in, kernels, int(sr)%6, int(sc)%6)
		want := refConv2D(in, kernels, int(sr)%6, int(sc)%6)
		for ch := range kernels {
			sameI32(t, "Conv2D(fuzz)", got[ch], want[ch])
			tensor.Put(got[ch])
		}
	})
}

// FuzzConv2DGemmEquiv fuzzes the GEMM panel product's geometries —
// window and kernel counts (row groups of three or four, register
// blocks of four), inner dimension (lane chunks of 32, steps of four),
// operand layout, saturated values, and one-signed panels with and
// without a stray negative code: always bit-identical to
// refConv2DGemm.
func FuzzConv2DGemmEquiv(f *testing.F) {
	f.Add(int64(1), uint8(128), uint8(128), uint16(128), uint8(0))
	f.Add(int64(2), uint8(7), uint8(5), uint16(33), uint8(1))      // all -128 x all -128
	f.Add(int64(3), uint8(1), uint8(1), uint16(4300), uint8(2))    // 127 x -128
	f.Add(int64(4), uint8(3), uint8(4), uint16(32), uint8(3))      // all 127: every lane at its bound
	f.Add(int64(5), uint8(128), uint8(128), uint16(511), uint8(4)) // codes 0..127: one-signed
	f.Add(int64(6), uint8(9), uint8(6), uint16(37), uint8(5))      // 0..127 and one negative code
	f.Fuzz(func(t *testing.T, seed int64, rows, chans uint8, inner uint16, fill uint8) {
		nw, nch, n := int(rows)%140+1, int(chans)%140+1, int(inner)%4400+1
		rng := rand.New(rand.NewSource(seed))
		var wins, kers *tensor.MatrixI8
		switch fill % 6 {
		case 0:
			wins, kers = randI8Operand(rng, nw, n), randI8Operand(rng, nch, n)
		case 1:
			wins, kers = constI8(nw, n, -128), constI8(nch, n, -128)
		case 2:
			wins, kers = constI8(nw, n, 127), constI8(nch, n, -128)
		case 3:
			wins, kers = constI8(nw, n, 127), constI8(nch, n, 127)
		default:
			wins, kers = nonNegI8(rng, nw, n), nonNegI8(rng, nch, n)
			if fill%6 == 5 {
				m := [2]*tensor.MatrixI8{wins, kers}[rng.Intn(2)]
				m.Row(rng.Intn(m.Rows))[rng.Intn(n)] = int8(-1 - rng.Intn(128))
			}
		}
		checkConv2DGemm(t, "Conv2DGemm(fuzz)", wins, kers)
	})
}
