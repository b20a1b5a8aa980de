package edgetpu

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func i8(rows, cols int, vals ...int8) *tensor.MatrixI8 {
	m := tensor.NewI8(rows, cols)
	copy(m.Data, vals)
	return m
}

// fullyConnected is FullyConnectedInto into a fresh accumulator slice.
func fullyConnected(weights *tensor.MatrixI8, vec []int8) []int32 {
	out := make([]int32, weights.Rows)
	FullyConnectedInto(out, weights, vec)
	return out
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := i8(3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	k := i8(1, 1, 1)
	out := Conv2D(in, []*tensor.MatrixI8{k}, 1, 1)[0]
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if out.At(r, c) != int32(in.At(r, c)) {
				t.Fatalf("identity conv mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestConv2DSamePaddingEdges(t *testing.T) {
	// 2x2 sum kernel anchored top-left with zero padding past edges:
	// bottom-right output only sees the single in-bounds element.
	in := i8(2, 2, 1, 2, 3, 4)
	k := i8(2, 2, 1, 1, 1, 1)
	out := Conv2D(in, []*tensor.MatrixI8{k}, 1, 1)[0]
	if out.At(0, 0) != 10 {
		t.Fatalf("full window got %d want 10", out.At(0, 0))
	}
	if out.At(1, 1) != 4 {
		t.Fatalf("corner window got %d want 4 (zero padded)", out.At(1, 1))
	}
	if out.At(0, 1) != 6 { // 2+4
		t.Fatalf("right edge got %d want 6", out.At(0, 1))
	}
}

func TestConv2DStrideGrouping(t *testing.T) {
	// Paper Figure 5: stride (3,3) with a 3x3 kernel restricts each
	// output to one non-overlapping group of 9 numbers.
	in := tensor.NewI8(6, 6)
	for i := range in.Data {
		in.Data[i] = 1
	}
	k := i8(3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	out := Conv2D(in, []*tensor.MatrixI8{k}, 3, 3)[0]
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatalf("condensed output %dx%d want 2x2", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if v != 9 {
			t.Fatalf("group sum %d want 9", v)
		}
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	in := i8(2, 2, 1, 2, 3, 4)
	k1 := i8(1, 1, 1)
	k2 := i8(1, 1, 2)
	outs := Conv2D(in, []*tensor.MatrixI8{k1, k2}, 1, 1)
	if len(outs) != 2 {
		t.Fatalf("want 2 channels got %d", len(outs))
	}
	if outs[1].At(1, 1) != 8 {
		t.Fatalf("channel 1 got %d want 8", outs[1].At(1, 1))
	}
}

func TestFullyConnected(t *testing.T) {
	w := i8(2, 3, 1, 2, 3, -1, 0, 1)
	out := fullyConnected(w, []int8{1, 1, 1})
	if out[0] != 6 || out[1] != 0 {
		t.Fatalf("FC got %v", out)
	}
}

func TestFullyConnectedShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fullyConnected(i8(1, 2, 1, 2), []int8{1})
}

func TestPairwiseOps(t *testing.T) {
	a := i8(1, 3, 100, -100, 7)
	b := i8(1, 3, 100, -100, -2)
	add := Add(a, b)
	if add.At(0, 0) != 200 || add.At(0, 1) != -200 || add.At(0, 2) != 5 {
		t.Fatalf("add got %v", add.Data)
	}
	sub := Sub(a, b)
	if sub.At(0, 0) != 0 || sub.At(0, 2) != 9 {
		t.Fatalf("sub got %v", sub.Data)
	}
	mul := Mul(a, b)
	if mul.At(0, 0) != 10000 || mul.At(0, 1) != 10000 || mul.At(0, 2) != -14 {
		t.Fatalf("mul got %v", mul.Data)
	}
}

func TestPairwiseShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(tensor.NewI8(2, 2), tensor.NewI8(2, 3))
}

func TestCropExt(t *testing.T) {
	in := i8(2, 2, 1, 2, 3, 4)
	c := Crop(in, 0, 1, 2, 1)
	if c.Rows != 2 || c.Cols != 1 || c.At(1, 0) != 4 {
		t.Fatalf("crop got %+v", c)
	}
	e := Ext(in, 3, 3)
	if e.Rows != 3 || e.At(2, 2) != 0 || e.At(1, 1) != 4 {
		t.Fatalf("ext got %+v", e)
	}
}

func TestMeanSumAndMax(t *testing.T) {
	in := i8(2, 2, 1, 2, 3, -6)
	sum, n := MeanSum(in)
	if sum != 0 || n != 4 {
		t.Fatalf("meansum got %d,%d", sum, n)
	}
	if MaxVal(in) != 3 {
		t.Fatalf("max got %d", MaxVal(in))
	}
}

func TestMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxVal(tensor.NewI8(0, 0))
}

func TestTanhLUT(t *testing.T) {
	in := i8(1, 3, 0, 127, -127)
	out := TanhLUT(in, 127) // inScale 127 => raw range [-1,1]
	if out.At(0, 0) != 0 {
		t.Fatalf("tanh(0) got %d", out.At(0, 0))
	}
	want := int8(math.RoundToEven(math.Tanh(1) * 127))
	if out.At(0, 1) != want {
		t.Fatalf("tanh(1) got %d want %d", out.At(0, 1), want)
	}
	if out.At(0, 2) != -want {
		t.Fatalf("tanh must be odd: got %d want %d", out.At(0, 2), -want)
	}
}

func TestReLU(t *testing.T) {
	in := i8(1, 4, -5, 0, 5, 127)
	out := ReLU(in)
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 || out.At(0, 2) != 5 || out.At(0, 3) != 127 {
		t.Fatalf("relu got %v", out.Data)
	}
}

// TestTanhCacheConcurrent hammers the copy-on-write LUT cache from
// many goroutines, as concurrent dispatch workers do, across more
// scales than its capacity, so growth, the cold-restart eviction path,
// and concurrent readers all overlap. make race runs it under -race.
func TestTanhCacheConcurrent(t *testing.T) {
	const workers = 8
	const scalesPerWorker = 24 // workers * scalesPerWorker > tanhCacheCap
	rng := rand.New(rand.NewSource(43))
	in := randI8(rng, 16, 16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < scalesPerWorker; i++ {
				scale := float32(w*scalesPerWorker+i+1) * 0.37
				got := TanhLUT(in, scale)
				want := refTanhLUT(in, scale)
				for r := 0; r < got.Rows; r++ {
					gr, wr := got.Row(r), want.Row(r)
					for c := range gr {
						if gr[c] != wr[c] {
							t.Errorf("TanhLUT scale=%v [%d][%d] = %d, want %d", scale, r, c, gr[c], wr[c])
							return
						}
					}
				}
				tensor.Put(got)
			}
		}(w)
	}
	wg.Wait()
}

// TestKernelSteadyStateAllocs pins the steady-state budget: once the
// tensor buffers and the GEMM scratch panels are pooled, a pairwise
// call and a Conv2DGemm call allocate nothing per invocation.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("sync.Pool intentionally drops puts under the race detector")
	}
	rng := rand.New(rand.NewSource(47))
	a, b := randI8(rng, 128, 128), randI8(rng, 128, 128)
	wins, kers := randI8(rng, 128, 144), randI8(rng, 128, 144)
	for i := 0; i < 3; i++ {
		tensor.Put(Add(a, b))
		tensor.Put(Conv2DGemm(wins, kers))
	}
	if n := testing.AllocsPerRun(50, func() {
		tensor.Put(Add(a, b))
	}); n > 0 {
		t.Errorf("Add: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		tensor.Put(Conv2DGemm(wins, kers))
	}); n > 0 {
		t.Errorf("Conv2DGemm: %.1f allocs/op, want 0", n)
	}
}

// Property: unstrided conv with a 1x1 unit kernel is the identity.
func TestQuickConvIdentity(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows)%20+1, int(cols)%20+1
		rng := rand.New(rand.NewSource(seed))
		in := tensor.NewI8(r, c)
		for i := range in.Data {
			in.Data[i] = int8(rng.Intn(255) - 127)
		}
		k := i8(1, 1, 1)
		out := Conv2D(in, []*tensor.MatrixI8{k}, 1, 1)[0]
		for rr := 0; rr < r; rr++ {
			for cc := 0; cc < c; cc++ {
				if out.At(rr, cc) != int32(in.At(rr, cc)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fullyConnected distributes over vector addition (exact
// integer linearity).
func TestQuickFCLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := tensor.NewI8(4, 6)
		for i := range w.Data {
			w.Data[i] = int8(rng.Intn(21) - 10)
		}
		u := make([]int8, 6)
		v := make([]int8, 6)
		sum := make([]int8, 6)
		for i := range u {
			u[i] = int8(rng.Intn(11) - 5)
			v[i] = int8(rng.Intn(11) - 5)
			sum[i] = u[i] + v[i]
		}
		a := fullyConnected(w, u)
		b := fullyConnected(w, v)
		s := fullyConnected(w, sum)
		for i := range s {
			if s[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Add and Sub are inverse through the wide accumulator:
// (a+b) - b == a for all int8 inputs.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := tensor.NewI8(5, 5)
		b := tensor.NewI8(5, 5)
		for i := range a.Data {
			a.Data[i] = int8(rng.Intn(255) - 127)
			b.Data[i] = int8(rng.Intn(255) - 127)
		}
		sum := Add(a, b)
		for i := range a.Data {
			if sum.Data[i]-int32(b.Data[i]) != int32(a.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
