package apps_test

import (
	"hash/fnv"
	"math"
	"testing"

	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/apps/backprop"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/gaussian"
	"repro/internal/apps/hotspot3d"
	"repro/internal/apps/lud"
	"repro/internal/apps/pagerank"
	"repro/internal/tensor"
)

// appGolden is one application's pinned functional output (FNV-64a of
// every result float's bits, in order) and virtual makespan (ns).
type appGolden struct {
	sum     uint64
	virtual int64
}

// TestAppGoldens is the equivalence oracle of the Tensorizer's host
// passes: the six non-GEMM Table 3 applications, at small seeded
// configurations on two devices, must reproduce their outputs bit for
// bit and their virtual makespans to the nanosecond. Host-side
// optimizations (how a split, a quantize or a requantization is
// computed) may not move either; a change that moves them on purpose
// re-pins the table and says so.
func TestAppGoldens(t *testing.T) {
	want := map[string]appGolden{
		"pagerank":     {0x80afaf027b4862e3, 873243},
		"hotspot3d":    {0xa4af9af046adcf6d, 1445299},
		"backprop":     {0xaec56afbe60fb415, 1771680},
		"lud":          {0xab755bda8d8b9883, 601343},
		"gaussian":     {0x947eb7845b08302, 17608783},
		"blackscholes": {0x85a6293c88449200, 2142236},
	}
	run := goldenApps()
	for name, w := range want {
		t.Run(name, func(t *testing.T) {
			ctx := gptpu.Open(gptpu.Config{Devices: 2})
			defer ctx.Close()
			res, m, err := run[name](ctx)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [4]byte
			for _, r := range res {
				for i := 0; i < r.Rows; i++ {
					for _, v := range r.Row(i) {
						u := math.Float32bits(v)
						b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
						h.Write(b[:])
					}
				}
			}
			got := appGolden{h.Sum64(), int64(m.Elapsed)}
			if got != w {
				t.Errorf("%s: {%#x, %d}, want {%#x, %d}", name, got.sum, got.virtual, w.sum, w.virtual)
			}
		})
	}
}

// goldenApps binds the six non-GEMM applications to the small seeded
// configurations TestAppGoldens pins; every run generates its input.
func goldenApps() map[string]func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
	vec := func(v []float32) []*tensor.Matrix { return []*tensor.Matrix{tensor.FromSlice(1, len(v), v)} }
	return map[string]func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error){
		"pagerank": func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
			cfg := pagerank.Config{N: 300, Iters: 4, Seed: 3}
			r, m, err := pagerank.RunTPU(ctx, cfg, cfg.Generate())
			return vec(r), m, err
		},
		"hotspot3d": func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
			cfg := hotspot3d.Config{N: 100, Layers: 3, Iters: 2, Seed: 3}
			temp, power := cfg.Generate()
			return hotspot3d.RunTPU(ctx, cfg, temp, power)
		},
		"backprop": func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
			cfg := backprop.Config{Batch: 96, In: 80, Hidden: 72, Seed: 3}
			r, m, err := backprop.RunTPU(ctx, cfg, cfg.Generate())
			if r == nil { // an error, or a timing-only run
				return nil, m, err
			}
			return []*tensor.Matrix{r.W1, r.W2}, m, nil
		},
		"lud": func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
			cfg := lud.Config{N: 160, Seed: 3}
			r, m, err := lud.RunTPU(ctx, cfg, cfg.Generate())
			return []*tensor.Matrix{r}, m, err
		},
		"gaussian": func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
			cfg := gaussian.Config{N: 150, Seed: 3}
			r, m, err := gaussian.RunTPU(ctx, cfg, cfg.Generate())
			return []*tensor.Matrix{r}, m, err
		},
		"blackscholes": func(ctx *gptpu.Context) ([]*tensor.Matrix, apps.Metrics, error) {
			cfg := blackscholes.Config{N: 5000, Seed: 3}
			r, m, err := blackscholes.RunTPU(ctx, cfg, cfg.Generate())
			return vec(r), m, err
		},
	}
}
