package bench

import (
	gptpu "repro"
	"repro/internal/apps"
	"repro/internal/apps/backprop"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/gaussian"
	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot3d"
	"repro/internal/apps/lud"
	"repro/internal/apps/pagerank"
	"repro/internal/blas"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// workload wires one Table 3 application into the harness: CPU
// baseline at a thread count, GPTPU at a device count, and the two
// GPU models. All performance runs are timing-only.
type workload struct {
	name string
	// paperSpeedup is the Figure 7(a) single-TPU anchor (approximate
	// where the figure's bar labels are not legible in the text).
	paperSpeedup string
	cpu          func(threads int) apps.Metrics
	tpu          func(devices int) apps.Metrics
	gpu          func(g *gpusim.GPU, scale float64) apps.Metrics
	// jetsonScale shrinks the input linearly for the Jetson Nano,
	// whose 4 GB memory cannot hold the full dataset (section 9.4
	// scales "by 25% to 50%").
	jetsonScale float64
}

// must returns a run's result and metrics, and panics on its error:
// every experiment input is fixed, so an error is a bug.
func must[T any](v T, m apps.Metrics, err error) (T, apps.Metrics) {
	if err != nil {
		panic(err)
	}
	return v, m
}

// workloads builds the seven applications at quick or full scale.
// Full scale follows Table 3 where the dispatch count stays tractable
// and documents the reduction factor where it does not.
func workloads(o Opts) []workload {
	// Linear dimensions per app.
	gemmN := 512
	prN, prIters := 1024, 10
	hsN, hsLayers, hsIters := 256, 4, 3
	ludN := 512
	gaN := 256
	bpB, bpIO := 512, 512
	bsN := 1 << 18
	if o.Full {
		gemmN = 16384 // Table 3: 2 x 16K x 16K
		prN, prIters = 32768, 20
		hsN, hsLayers, hsIters = 8192, 8, 10 // Table 3: 8 x 8K x 8K
		ludN = 4096
		gaN = 1024 // Table 3 is 4K; scaled 4x for dispatch-count tractability
		bpB, bpIO = 8192, 8192
		bsN = 1 << 25 // Table 3 is 256M options; scaled 8x
	}

	return []workload{
		{
			name: "Backprop", paperSpeedup: "4.08", jetsonScale: 0.5,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := backprop.RunCPU(cpu, th, backprop.Config{Batch: bpB, In: bpIO, Hidden: bpIO}, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				_, m := must(backprop.RunTPU(ctx, backprop.Config{Batch: bpB, In: bpIO, Hidden: bpIO}, nil))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				n := scaleDim(bpB, sc)
				io := scaleDim(bpIO, sc)
				return backprop.RunGPU(g, backprop.Config{Batch: n, In: io, Hidden: io})
			},
		},
		{
			name: "BlackScholes", paperSpeedup: "~2.5", jetsonScale: 0.5,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := blackscholes.RunCPU(cpu, th, blackscholes.Config{N: bsN}, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				_, m := must(blackscholes.RunTPU(ctx, blackscholes.Config{N: bsN}, nil))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				return blackscholes.RunGPU(g, blackscholes.Config{N: scaleDim(bsN, sc)}, gpusim.FP32)
			},
		},
		{
			name: "Gaussian", paperSpeedup: "~2.2", jetsonScale: 0.5,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := gaussian.RunCPU(cpu, th, gaussian.Config{N: gaN}, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				_, m := must(gaussian.RunTPU(ctx, gaussian.Config{N: gaN}, nil))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				return gaussian.RunGPU(g, gaussian.Config{N: scaleDim(gaN, sc)}, gpusim.FP16)
			},
		},
		{
			name: "GEMM", paperSpeedup: "~2.2", jetsonScale: 0.5,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := gemm.RunCPU(cpu, th, gemm.Config{N: gemmN}, nil, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				a, b := shapeOnly(gemmN), shapeOnly(gemmN)
				_, m := must(gemm.RunTPU(ctx, gemm.Conv2D, a, b))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				prec := gpusim.INT8 // tensor cores in 8-bit mode (section 9.4)
				if g.M.Name == "gpu-jetson" {
					prec = gpusim.FP32
				}
				return gemm.RunGPU(g, gemm.Config{N: scaleDim(gemmN, sc)}, prec)
			},
		},
		{
			name: "HotSpot3D", paperSpeedup: "1.14", jetsonScale: 1,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := hotspot3d.RunCPU(cpu, th, hotspot3d.Config{N: hsN, Layers: hsLayers, Iters: hsIters}, nil, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				_, m := must(hotspot3d.RunTPU(ctx, hotspot3d.Config{N: hsN, Layers: hsLayers, Iters: hsIters}, nil, nil))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				return hotspot3d.RunGPU(g, hotspot3d.Config{N: scaleDim(hsN, sc), Layers: hsLayers, Iters: hsIters})
			},
		},
		{
			name: "LUD", paperSpeedup: "~2.2", jetsonScale: 0.5,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := lud.RunCPU(cpu, th, lud.Config{N: ludN}, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				_, m := must(lud.RunTPU(ctx, lud.Config{N: ludN}, nil))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				return lud.RunGPU(g, lud.Config{N: scaleDim(ludN, sc)}, gpusim.FP32)
			},
		},
		{
			name: "PageRank", paperSpeedup: "~2.2", jetsonScale: 0.25,
			cpu: func(th int) apps.Metrics {
				cpu := blas.NewCPU(nil, max(th, 1))
				_, m := pagerank.RunCPU(cpu, th, pagerank.Config{N: prN, Iters: prIters}, nil)
				return m
			},
			tpu: func(dev int) apps.Metrics {
				ctx := o.open(gptpu.Config{Devices: dev, TimingOnly: true})
				g := &pagerank.Graph{Adj: tensor.ShapeOnly(prN, prN), OutDeg: make([]float32, prN)}
				_, m := must(pagerank.RunTPU(ctx, pagerank.Config{N: prN, Iters: prIters}, g))
				return m
			},
			gpu: func(g *gpusim.GPU, sc float64) apps.Metrics {
				return pagerank.RunGPU(g, pagerank.Config{N: scaleDim(prN, sc), Iters: prIters})
			},
		},
	}
}

func scaleDim(n int, sc float64) int {
	if sc >= 1 {
		return n
	}
	v := int(float64(n) * sc)
	if v < 1 {
		return 1
	}
	return v
}

// shapeOnly returns an NxN shape-only matrix for timing-only runs.
func shapeOnly(n int) *tensor.Matrix { return tensor.ShapeOnly(n, n) }
