package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/edgetpu"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	gemmN     = 512 // operand side
	gemmPool  = 8   // distinct seeded A matrices
	gemmFixed = 2   // A matrices of the fixed check set
	// gemmErrLimit is the accepted error, in percent, of the int8
	// 512x512 product of [0,1) operands against blas.Gemm; 0.03 % is
	// measured.
	gemmErrLimit = 0.3
	// gemmTileRows is the row count of one conv2D instruction the
	// Tensorizer cuts a 512-row A into on two devices.
	gemmTileRows = 128
)

// gemmLib is the closed-loop library GEMM: one caller, functional
// Op.Gemm 512x512 on two devices, a fresh buffer over one of eight A
// matrices each call (so A is quantized every call), B resident.
type gemmLib struct {
	in    gemmInputs // from --seed: what the timed phase multiplies
	fixed gemmInputs // from checkSeed: what result_err_pct is computed on
	sums  []uint64   // result checksum per seeded pool entry, fixed by check

	ctx *gptpu.Context
	op  *gptpu.Op

	// kers is B quantized and transposed: the kernel panel Conv2DGemm is
	// handed, for the traced pass's standalone replay of the edgetpu layer.
	kers *tensor.MatrixI8
}

// gemmInputs is one B, a pool of A matrices and their float32 products.
type gemmInputs struct {
	a    []*tensor.Matrix
	b    *tensor.Matrix
	refs []*tensor.Matrix
	bBuf *gptpu.Buffer // B stays resident across ops
}

func genGemm(seed int64, pool int) gemmInputs {
	rng := rand.New(rand.NewSource(seed))
	in := gemmInputs{b: uniform01(rng, gemmN, gemmN)}
	for i := 0; i < pool; i++ {
		a := uniform01(rng, gemmN, gemmN)
		in.a = append(in.a, a)
		in.refs = append(in.refs, blas.GemmParallel(a, in.b))
	}
	return in
}

func (w *gemmLib) setup(seed int64, traced bool) error {
	w.in, w.fixed = genGemm(seed, gemmPool), genGemm(checkSeed, gemmFixed)
	w.sums = make([]uint64, gemmPool)

	w.ctx = gptpu.Open(gptpu.Config{Devices: 2, Trace: traced})
	w.op = w.ctx.NewOp()
	w.in.bBuf = w.ctx.CreateMatrixBuffer(w.in.b)
	w.fixed.bBuf = w.ctx.CreateMatrixBuffer(w.fixed.b)
	for _, in := range []*gemmInputs{&w.fixed, &w.in} { // warm-up: both B quantized and resident, pools filled
		if _, err := w.gemm(in, 0); err != nil {
			return fmt.Errorf("gemm_lib warm-up: %w", err)
		}
	}
	if traced {
		qb, _ := quant.Quantize(w.in.b)
		w.kers = tensor.NewI8(gemmN, gemmN)
		for i := 0; i < gemmN; i++ {
			for j := 0; j < gemmN; j++ {
				w.kers.Row(j)[i] = qb.At(i, j)
			}
		}
	}
	return nil
}

// gemm runs one op on pool entry i of in. Stream errors are sticky, so
// a failed op gets a fresh stream for the next one.
func (w *gemmLib) gemm(in *gemmInputs, i int) (*tensor.Matrix, error) {
	out := w.op.Gemm(w.ctx.CreateMatrixBuffer(in.a[i]), in.bBuf)
	if err := w.op.Err(); err != nil {
		w.op = w.ctx.NewOp()
		return nil, err
	}
	return out, nil
}

// check multiplies the fixed set for result_err_pct, then every seeded
// pool entry once: its virtual time, its error against the limit, and
// the checksum every repeat in the timed phase must reproduce.
func (w *gemmLib) check() checked {
	var c checked
	one := func(in *gemmInputs, i int) (*tensor.Matrix, float64) {
		c.sent++
		out, err := w.gemm(in, i)
		if err != nil {
			c.fail(errClass(err))
			return nil, 0
		}
		e := errPct(in.refs[i], out)
		if e > gemmErrLimit {
			c.fail(failTolerance)
			return nil, 0
		}
		c.ok++
		return out, e
	}
	for i := range w.fixed.a {
		_, e := one(&w.fixed, i)
		c.errPct += e / gemmFixed
	}
	v0 := w.ctx.Elapsed()
	for i := range w.in.a {
		if out, _ := one(&w.in, i); out != nil {
			w.sums[i] = checksum(out)
		}
	}
	c.virtualMS = (w.ctx.Elapsed() - v0).Seconds() * 1e3 / gemmPool
	return c
}

func (w *gemmLib) run(d time.Duration, m *meter, sl *spanLog) *phase {
	return closedLoop(d, m, func(n int) (time.Duration, string) {
		i := n % gemmPool
		t0 := time.Now()
		out, err := w.gemm(&w.in, i)
		t1 := time.Now()
		if sl != nil {
			w.replay(sl, sl.add("gemm_lib.op", t0, t1, -1, int64(n)), int64(n), w.in.a[i])
		}
		switch {
		case err != nil:
			return 0, errClass(err)
		case checksum(out) != w.sums[i]:
			return 0, failChecksum
		}
		return t1.Sub(t0), ""
	})
}

// replay runs, standalone and on the op's own input, the layer calls
// the runtime made for it — quantize A, then the four conv2D tile
// kernels at the dispatch engine's fan-out — and records them as the
// op's children. What is left of the op's span is core's own time.
func (w *gemmLib) replay(sl *spanLog, parent int, opID int64, a *tensor.Matrix) {
	t0 := time.Now()
	qa, _ := quant.Quantize(a)
	t1 := time.Now()
	sl.add("quant.quantize", t0, t1, parent, opID)

	tiles := make(chan int, gemmN/gemmTileRows)
	for r0 := 0; r0 < gemmN; r0 += gemmTileRows {
		tiles <- r0
	}
	close(tiles)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r0 := range tiles {
				tensor.PutI32(edgetpu.Conv2DGemm(qa.View(r0, 0, gemmTileRows, gemmN), w.kers))
			}
		}()
	}
	wg.Wait()
	sl.add("edgetpu.conv2d_gemm", t1, time.Now(), parent, opID)
}

func (w *gemmLib) counters() counters {
	c := runtimeCounters(w.ctx)
	c.add(poolCounters())
	return c
}

func (w *gemmLib) registry() *telemetry.Registry { return w.ctx.Metrics() }
func (w *gemmLib) layers(values, time.Duration)  {}
func (w *gemmLib) stages() map[string]float64    { return nil }
func (w *gemmLib) close()                        { w.ctx.Close() }
