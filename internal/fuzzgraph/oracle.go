package fuzzgraph

import (
	"fmt"
	"math"

	"repro/internal/server"
	"repro/internal/tensor"
)

// Harness owns the wire leg of the three-way oracle: an in-process
// daemon on a loopback socket plus one client. Its GEMMs opt out of
// micro-batching (CallOpts.NoBatch) because a batched GEMM quantizes
// its riders with one joint scale and is deliberately not
// bit-identical to the per-request path.
type Harness struct {
	srv *server.Server
	cli *server.Client
}

// NewHarness boots the loopback daemon. A nil Harness is a valid
// argument to Check and skips the wire leg.
func NewHarness() (*Harness, error) {
	srv, cli, err := server.Loopback(server.Config{
		Devices:     4,
		MaxInFlight: 256,
	})
	if err != nil {
		return nil, err
	}
	return &Harness{srv: srv, cli: cli}, nil
}

// Close tears down the client then the daemon.
func (h *Harness) Close() {
	if h == nil {
		return
	}
	h.cli.Close()
	h.srv.Shutdown()
}

// diffNodes compares the per-node observations of two outcomes.
func diffNodes(what string, want, got *outcome) error {
	if got.SubmitLabel != want.SubmitLabel {
		return fmt.Errorf("%s: Submit = %q, want %q", what, got.SubmitLabel, want.SubmitLabel)
	}
	for i := range want.Nodes {
		w, g := &want.Nodes[i], &got.Nodes[i]
		switch {
		case g.Label != w.Label:
			return fmt.Errorf("%s: n%d error = %q, want %q", what, i, g.Label, w.Label)
		case g.OnChip != w.OnChip:
			return fmt.Errorf("%s: n%d on-chip = %v, want %v", what, i, g.OnChip, w.OnChip)
		case g.ShapeOnly != w.ShapeOnly:
			return fmt.Errorf("%s: n%d shape-only = %v, want %v", what, i, g.ShapeOnly, w.ShapeOnly)
		case g.Rows != w.Rows || g.Cols != w.Cols:
			return fmt.Errorf("%s: n%d is %dx%d, want %dx%d", what, i, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		if err := diffBits(fmt.Sprintf("%s: n%d", what, i), w.Bits, g.Bits); err != nil {
			return err
		}
	}
	return nil
}

// diffOutcomes is diffNodes plus the virtual-makespan comparison.
func diffOutcomes(what string, want, got *outcome) error {
	if err := diffNodes(what, want, got); err != nil {
		return err
	}
	if got.Makespan != want.Makespan {
		return fmt.Errorf("%s: makespan = %v, want %v", what, got.Makespan, want.Makespan)
	}
	return nil
}

func diffBits(what string, want, got []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("%s: elem %d = %08x (%v), want %08x (%v)", what, j,
				got[j], math.Float32frombits(got[j]), want[j], math.Float32frombits(want[j]))
		}
	}
	return nil
}

// check executes the case through the full differential matrix and
// returns the first divergence:
//
//   - optimized kernels at workers {1,4,8}: identical results AND
//     identical virtual makespans (worker count must not change what
//     is computed or what the model says it costs);
//   - frozen ops_ref kernels at workers {1,4,8}: identical to the
//     optimized base, bit for bit, makespans included;
//   - the same matrix under the case's randomized fault plan, checked
//     against a fault baseline, with every node that survives both the
//     faulty and clean runs required to carry clean-run bits;
//   - a fetch-everything run: forcing host residency must not change
//     any value or error, only where results live;
//   - timing-only mode at workers {1,8}: equal makespans, and no node
//     may publish real data;
//   - the wire: every wire-expressible node replayed one op at a time
//     through a live daemon, compared bit-for-bit against the graph.
func check(cs *Case, h *Harness) error {
	ins := cs.materialize()
	base := runCase(cs, ins, runCfg{workers: 1, functional: true})

	for _, w := range []int{4, 8} {
		got := runCase(cs, ins, runCfg{workers: w, functional: true})
		if err := diffOutcomes(fmt.Sprintf("fast w=%d", w), base, got); err != nil {
			return err
		}
	}
	for _, w := range []int{1, 4, 8} {
		got := runCase(cs, ins, runCfg{workers: w, functional: true, ref: true})
		if err := diffOutcomes(fmt.Sprintf("ref w=%d", w), base, got); err != nil {
			return err
		}
	}

	// Residency invariance: fetch everything. Where the base run kept a
	// value on chip the fetch-all run must materialize it; everywhere
	// else the observation is unchanged. Makespans differ (extra
	// transfers) and are not compared.
	fetched := runCase(cs, ins, runCfg{workers: 1, functional: true, fetchAll: true})
	if fetched.SubmitLabel != base.SubmitLabel {
		return fmt.Errorf("fetch-all: Submit = %q, want %q", fetched.SubmitLabel, base.SubmitLabel)
	}
	for i := range base.Nodes {
		b, f := &base.Nodes[i], &fetched.Nodes[i]
		if f.Label != b.Label {
			return fmt.Errorf("fetch-all: n%d error = %q, want %q", i, f.Label, b.Label)
		}
		if f.OnChip {
			return fmt.Errorf("fetch-all: n%d still on chip", i)
		}
		if b.Bits != nil {
			if err := diffBits(fmt.Sprintf("fetch-all: n%d", i), b.Bits, f.Bits); err != nil {
				return err
			}
		}
	}

	// Fault plan: same checks against a faulty baseline, plus the
	// cross-cut — any node that succeeds under faults must compute the
	// same bits it computes on a clean run.
	fbase := runCase(cs, ins, faultCfg(cs, runCfg{workers: 1, functional: true}))
	for _, rc := range []runCfg{
		{workers: 4, functional: true},
		{workers: 8, functional: true},
		{workers: 1, functional: true, ref: true},
	} {
		got := runCase(cs, ins, faultCfg(cs, rc))
		what := fmt.Sprintf("fault fast w=%d", rc.workers)
		if rc.ref {
			what = fmt.Sprintf("fault ref w=%d", rc.workers)
		}
		if err := diffOutcomes(what, fbase, got); err != nil {
			return err
		}
	}
	for i := range base.Nodes {
		b, f := &base.Nodes[i], &fbase.Nodes[i]
		if b.Bits != nil && f.Bits != nil {
			if err := diffBits(fmt.Sprintf("fault vs clean: n%d", i), b.Bits, f.Bits); err != nil {
				return err
			}
		}
	}

	// Timing-only: the virtual clock must not depend on worker count,
	// and no node may publish real data — every successful observation
	// is a shape descriptor or still on chip.
	t1 := runCase(cs, ins, runCfg{workers: 1})
	t8 := runCase(cs, ins, runCfg{workers: 8})
	if err := diffOutcomes("timing-only w=8 vs w=1", t1, t8); err != nil {
		return err
	}
	for i := range t1.Nodes {
		n := &t1.Nodes[i]
		if n.Label == "" && !n.OnChip && !n.ShapeOnly {
			return fmt.Errorf("timing-only: n%d published real data (%dx%d)", i, n.Rows, n.Cols)
		}
	}

	if h != nil {
		return h.wireCheck(cs, ins, fetched)
	}
	return nil
}

// faultCfg attaches a fresh copy of the case's fault plan to a runCfg.
func faultCfg(cs *Case, rc runCfg) runCfg {
	fc := cs.Fault
	rc.fc = &fc
	return rc
}

// wireCheck replays every wire-expressible node as a single serving
// request, feeding it the operand values the fetch-all graph run
// materialized, and requires the daemon's answer to match the graph's
// bit for bit. Nodes with no wire form are skipped: host glue, and the
// table operators with no message type (the FullyConnected GEMM,
// Tanh, ReLU, Conv2DStrided, Crop, Ext, MatVec). Views are fine: the
// codec walks strides.
func (h *Harness) wireCheck(cs *Case, ins []*tensor.Matrix, fetched *outcome) error {
	argMat := func(a int) *tensor.Matrix {
		if a < 0 {
			return ins[-a-1]
		}
		no := &fetched.Nodes[a]
		if no.Bits == nil {
			return nil
		}
		data := make([]float32, len(no.Bits))
		for i, b := range no.Bits {
			data[i] = math.Float32frombits(b)
		}
		return tensor.FromSlice(no.Rows, no.Cols, data)
	}

	for i := range cs.Nodes {
		ns := &cs.Nodes[i]
		out := &fetched.Nodes[i]
		if out.Label != "" || out.Bits == nil {
			continue
		}
		top, table := tableOps[ns.Op]
		t, wire := server.MsgFor(top)
		if !table || !wire {
			continue
		}
		a, b := argMat(ns.Args[0]), (*tensor.Matrix)(nil)
		if top.Arity() == 2 {
			b = argMat(ns.Args[1])
		}
		if a == nil || (top.Arity() == 2 && b == nil) {
			continue
		}
		var opts *server.CallOpts
		if t == server.MsgGemm {
			opts = &server.CallOpts{NoBatch: true}
		}
		got, err := h.cli.Call(t, a, b, opts)
		if err != nil {
			return fmt.Errorf("wire: n%d %s: %w", i, ns.Op, err)
		}
		if got.Rows != out.Rows || got.Cols != out.Cols {
			return fmt.Errorf("wire: n%d %s: %dx%d, want %dx%d", i, ns.Op, got.Rows, got.Cols, out.Rows, out.Cols)
		}
		if err := diffBits(fmt.Sprintf("wire: n%d %s", i, ns.Op), out.Bits, matrixBits(got)); err != nil {
			return err
		}
	}
	return nil
}
