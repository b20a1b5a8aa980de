package bench

import (
	"fmt"

	"repro/internal/edgetpu"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// canonicalInstr reconstructs the per-instruction measurement workload
// behind Table 1. The paper never states its shapes; they are
// recovered from the published RPS/OPS ratio (result values per
// instruction).
func canonicalInstr(op isa.OpCode, p *timing.Params) *isa.Instruction {
	res := p.Op[op].CanonicalResults
	switch op {
	case isa.Conv2D:
		return &isa.Instruction{Op: op, InRows: 128, InCols: 128, KRows: 3, KCols: 3, Channels: 1}
	case isa.FullyConnected:
		return &isa.Instruction{Op: op, InRows: int(res), InCols: 128}
	case isa.Mean, isa.Max:
		return &isa.Instruction{Op: op, InRows: isa.ReduceTile, InCols: isa.ReduceTile}
	default:
		rows := int(res) / 128
		if rows < 1 {
			rows = 1
		}
		cols := int(res) / rows
		return &isa.Instruction{Op: op, InRows: rows, InCols: cols}
	}
}

// Table1 re-runs the section 3.2 measurement loop on the simulated
// device: issue each canonical instruction 10,000 then 20,000 times
// and derive OPS and RPS from the latency difference (Equations 1-2),
// exactly as the paper does to cancel setup cost.
func Table1(_ Opts) *Report {
	params := timing.Default()
	rep := &Report{
		ID:     "table1",
		Title:  "maximum OPS and RPS per Edge TPU operator/instruction",
		Header: []string{"operator", "OPS(paper)", "OPS(sim)", "RPS(paper)", "RPS(sim)", "ratio"},
	}
	for _, op := range isa.AllOps() {
		tl := timing.NewTimeline()
		pool := edgetpu.NewPool(tl, params, 1, nil)
		d := pool.Devices[0]
		in := canonicalInstr(op, params)

		run := func(times int) float64 {
			var end timing.Duration
			for i := 0; i < times; i++ {
				var err error
				end, err = d.Exec(in, end)
				if err != nil {
					panic(err)
				}
			}
			return end.Seconds()
		}
		// Equation 1: OPS = (o2-o1)/(t2-t1). The simulator has no
		// warm-up noise but we follow the protocol regardless.
		t1 := run(10000)
		tl.Reset()
		t2 := run(20000)
		ops := 10000 / (t2 - t1)
		rps := ops * float64(in.Results())
		oc := params.Op[op]
		rep.AddRow(op.String(), f2(oc.PaperOPS), f2(ops), f2(oc.PaperRPS), f2(rps), f2x(ops/oc.PaperOPS))
	}
	rep.AddNote("canonical instruction shapes recovered from the published RPS/OPS ratios; 'ratio' is simulated/paper OPS")
	return rep
}

// DataExchange reproduces the section 3.2 transfer measurement:
// "transmitting 1 MB of data to an Edge TPU takes around 6 ms, while
// transmitting 8 MB ... takes 48 ms".
func DataExchange(_ Opts) *Report {
	params := timing.Default()
	tl := timing.NewTimeline()
	pool := edgetpu.NewPool(tl, params, 1, nil)
	rep := &Report{
		ID:     "exchange",
		Title:  "host to Edge TPU data-exchange latency",
		Header: []string{"size", "latency(paper)", "latency(sim)"},
	}
	for _, mb := range []int{1, 2, 4, 8} {
		tl.Reset()
		end, err := pool.Devices[0].Upload(uint64(mb), int64(mb)<<20, 0)
		if err != nil {
			panic(err)
		}
		paper := "-"
		switch mb {
		case 1:
			paper = "~6ms"
		case 8:
			paper = "~48ms"
		}
		rep.AddRow(fmt.Sprintf("%dMB", mb), paper, ms(end.Seconds()))
	}
	rep.AddNote("rate calibrated to the paper's measured 6 ms/MB; latency exceeds any single instruction, as observed")
	return rep
}

// ModelCreation reproduces the 6.2.3 result: the C-based Tensorizer
// encodes a 2Kx2K model in 1.8 ms versus 2.7 s for the Python TFLite
// compiler — "a 1500x speedup". The fast path also byte-encodes a
// real model through the reverse-engineered format as a functional
// check.
func ModelCreation(o Opts) *Report {
	params := timing.Default()
	n := 512
	if o.Full {
		n = 2048
	}
	m := tensor.New(n, n)
	for i := range m.Data {
		m.Data[i] = float32(i % 251)
	}
	p := quant.ParamsFor(m)
	mod := model.FromMatrix(m, isa.ArithTile, p)
	enc := mod.Encode()
	dec, err := model.Decode(enc)
	if err != nil {
		panic(err)
	}
	if !dec.Data.Equal(mod.Data) {
		panic("bench: model round-trip failed")
	}

	elems := int64(2048 * 2048)
	ref := params.RefCompileTime(elems).Seconds()
	fast := params.TensorizerEncodeTime(elems).Seconds()
	rep := &Report{
		ID:     "model",
		Title:  "model-creation latency for a 2Kx2K matrix",
		Header: []string{"path", "latency(paper)", "latency(sim)"},
	}
	rep.AddRow("Python TFLite compiler", "2.7s", secs(ref))
	rep.AddRow("Tensorizer (reverse-engineered format)", "1.8ms", ms(fast))
	rep.AddRow("speedup", "~1500x", f2x(ref/fast))
	rep.AddNote("functional check: %d-byte model encoded and decoded losslessly (%dx%d data section, scale %g)",
		len(enc), mod.Rows, mod.Cols, mod.Scale)
	return rep
}

// Table6 prints the accelerator cost/power inventory.
func Table6(_ Opts) *Report {
	rep := &Report{
		ID:     "table6",
		Title:  "cost and power consumption of compared accelerators",
		Header: []string{"accelerator", "cost(USD)", "power", "comment"},
	}
	for _, r := range []struct {
		name        string
		cost, watts float64
		comment     string
	}{
		{"Single Edge TPU", energy.EdgeTPUCost, energy.EdgeTPUWattsTP, ""},
		{"RTX 2080", energy.RTX2080Cost, energy.RTX2080Watts, "now USD 1399 (paper note)"},
		{"Jetson Nano", energy.JetsonNanoCost, energy.JetsonNanoWatts, ""},
		{"8x Edge TPU", energy.EdgeTPU8Cost, energy.EdgeTPU8WattsTP, "using 4x dual Edge TPU modules"},
	} {
		rep.AddRow(r.name, fmt.Sprintf("%.2f", r.cost), fmt.Sprintf("%gW", r.watts), r.comment)
	}
	rep.AddNote("static inventory (Table 6); the energy model draws its constants from these figures")
	return rep
}
