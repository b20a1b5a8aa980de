// Quickstart: a whole dataflow graph on the simulated Edge TPU pool —
// build a chain of device operators over symbolic node handles, submit
// it as one unit, and read only the final result back. The
// intermediates between the chained operators stay in on-chip memory:
// no download, no host dequantize/re-encode round-trip, which is the
// host-traffic elimination the GPTPU paper's pipelining argues for.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"

	gptpu "repro"
	"repro/internal/blas"
	"repro/internal/tensor"
)

func main() {
	const n = 512
	rng := rand.New(rand.NewSource(42))
	rawA := tensor.RandUniform(rng, n, n, -1, 1)
	rawB := tensor.RandUniform(rng, n, n, -1, 1)
	rawC := tensor.RandUniform(rng, n, n, -1, 1)

	// Open a GPTPU context over one simulated Edge TPU.
	ctx := gptpu.Open(gptpu.Config{Devices: 1})

	// Bind buffers over the raw host matrices.
	dim := gptpu.AllocDimension(2, n, n)
	a := ctx.CreateBuffer(dim, rawA.Data)
	b := ctx.CreateBuffer(dim, rawB.Data)
	c := ctx.CreateBuffer(dim, rawC.Data)

	// Build the DAG: tanh(a@b + c), three chained device operators.
	// Nothing executes yet — MatMul/Add/Tanh return symbolic handles.
	g := ctx.NewGraph()
	out := g.MatMul(a, b).Add(c).Tanh()

	// One submission runs the whole chain. The MatMul and Add outputs
	// never leave the device; only the leaf materializes on the host.
	if err := g.Submit(); err != nil {
		slog.Error("graph submit failed", "err", err)
		os.Exit(1)
	}
	got, err := out.Result()
	if err != nil {
		slog.Error("result unavailable", "err", err)
		os.Exit(1)
	}

	// Exact CPU reference for the same chain.
	ref := blas.Gemm(rawA, rawB)
	for i := range ref.Data {
		ref.Data[i] = float32(math.Tanh(float64(ref.Data[i] + rawC.Data[i])))
	}

	st := ctx.Stats()
	var downloaded int64
	for _, d := range st.PerDevice {
		downloaded += d.DownloadBytes
	}
	fmt.Printf("graph tanh(a@b + c), %dx%d, one Submit\n", n, n)
	fmt.Printf("  nodes executed: %d, intermediates kept on-chip: %d\n",
		st.GraphNodes, st.GraphChipIntermediates)
	fmt.Printf("  device->host traffic: %d bytes (exactly the %d-byte leaf)\n", downloaded, n*n)
	fmt.Printf("  RMSE vs float CPU chain: %.4f%%\n", 100*tensor.RMSE(ref, got))
	fmt.Printf("  virtual time on the simulated platform: %v\n", ctx.Elapsed())
	rep := ctx.Energy()
	fmt.Printf("  energy: %.2f J total (%.2f J active, %.2f J idle floor)\n",
		rep.TotalJoules(), rep.ActiveJoules, rep.IdleJoules)
}
