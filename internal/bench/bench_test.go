package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	gptpu "repro"
	"repro/internal/telemetry"
)

// sweepRun is one experiment of the shared quick sweep: its report, the
// contexts it opened through Opts.Open, and the instructions they
// recorded.
type sweepRun struct {
	rep    *Report
	opened int
	instrs float64
}

// quick runs every experiment at quick scale once per test binary,
// every context recording into one registry; the tests below all read
// this one sweep.
var quick = sync.OnceValue(func() map[string]sweepRun {
	reg := telemetry.NewRegistry()
	runs := map[string]sweepRun{}
	for _, e := range All() {
		var r sweepRun
		before := instructions(reg)
		r.rep = e.Run(Opts{Open: func(cfg gptpu.Config) *gptpu.Context {
			r.opened++
			cfg.Metrics = reg
			return gptpu.Open(cfg)
		}})
		r.instrs = instructions(reg) - before
		runs[e.ID] = r
	}
	return runs
})

func report(id string) *Report { return quick()[id].rep }

// rowNames lists rep's rows by name.
func rowNames(rep *Report) []string {
	var names []string
	for _, r := range rep.Rows {
		names = append(names, r[0].Label)
	}
	return names
}

// at is rep's cell in the row named row and the column named col.
func at(t *testing.T, rep *Report, row, col string) Cell {
	t.Helper()
	if j := rep.col(col); j >= 0 {
		for _, r := range rep.Rows {
			if r[0].Label == row {
				return r[j]
			}
		}
	}
	t.Fatalf("%s: no cell %s/%s", rep.ID, row, col)
	return Cell{}
}

func TestTable1MatchesPaperRates(t *testing.T) {
	rep := report("table1")
	if len(rep.Rows) != 11 {
		t.Fatalf("Table 1 must list 11 operators, got %d", len(rep.Rows))
	}
	for _, op := range rowNames(rep) {
		if ratio := at(t, rep, op, "ratio").Value; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: OPS ratio %v outside 5%%", op, ratio)
		}
	}
}

func TestDataExchangeMatchesPaper(t *testing.T) {
	rep := report("exchange")
	if got := at(t, rep, "1MB", "latency(sim)").Value; got < 5.5e-3 || got > 6.5e-3 {
		t.Errorf("1MB latency %vs, want ~6ms", got)
	}
	if got := at(t, rep, "8MB", "latency(sim)").Value; got < 47e-3 || got > 49e-3 {
		t.Errorf("8MB latency %vs, want ~48ms", got)
	}
}

func TestModelCreationSpeedup(t *testing.T) {
	if sp := at(t, report("model"), "speedup", "latency(sim)").Value; sp < 1400 || sp > 1600 {
		t.Errorf("compile speedup %v, want ~1500", sp)
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := report("fig6")
	sizes := rowNames(rep)
	var prevConv float64
	for i, n := range sizes {
		conv := at(t, rep, n, "conv2D(sim)").Value
		if fc := at(t, rep, n, "FC(sim)").Value; fc >= conv {
			t.Errorf("row %s: FC (%v) must lose to conv2D (%v)", n, fc, conv)
		}
		if i > 0 && conv < prevConv {
			t.Errorf("conv2D speedup must grow with size (amortization): %v after %v", conv, prevConv)
		}
		prevConv = conv
	}
	// The conv2D/FC gap must widen with size toward the paper's 43x.
	first := at(t, rep, sizes[0], "conv2D/FC").Value
	last := at(t, rep, sizes[len(sizes)-1], "conv2D/FC").Value
	if last <= first {
		t.Errorf("conv2D advantage should grow with size: %v -> %v", first, last)
	}
}

func TestTable5Shape(t *testing.T) {
	rep := report("table5")
	if len(rep.Rows) != 7 {
		t.Fatalf("Table 5 needs 7 ranges, got %d", len(rep.Rows))
	}
	for _, r := range rowNames(rep) {
		fb := at(t, rep, r, "RMSE FBGEMM(sim)").Value
		switch r {
		case "0-2", "0-4", "0-8", "0-16":
			if fb > 0.01 {
				t.Errorf("%s: FBGEMM should be exact, RMSE %v", r, fb)
			}
		case "0-32", "0-64", "0-128":
			if fb < 0.2 {
				t.Errorf("%s: FBGEMM should overflow, RMSE %v", r, fb)
			}
		}
		if tpu := at(t, rep, r, "RMSE tpuGemm(sim)").Value; tpu > 0.02 {
			t.Errorf("%s: tpuGemm RMSE %v should stay ~0", r, tpu)
		}
	}
}

func TestTable4UnderstandableErrors(t *testing.T) {
	rep := report("table4")
	// Default-dataset errors must stay small for the well-conditioned
	// apps (the iterative eliminations are documented exceptions).
	for _, name := range []string{"GEMM", "PageRank", "Blackscholes", "HotSpot", "Backprop"} {
		if rmse := at(t, rep, name, "RMSE(def)").Value; rmse > 0.05 {
			t.Errorf("%s default RMSE %v too high", name, rmse)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	rep := report("fig8")
	for _, app := range rowNames(rep) {
		if app == "Average" {
			continue
		}
		s2 := at(t, rep, app, "2 TPUs").Value
		if s8 := at(t, rep, app, "8 TPUs").Value; s8 < s2*0.99 {
			t.Errorf("%s: 8 TPUs (%v) should not lose to 2 (%v)", app, s8, s2)
		}
		if scale := at(t, rep, app, "scale@8(sim)").Value; scale < 0.99 {
			t.Errorf("%s: negative multi-TPU scaling %v", app, scale)
		}
	}
	// LUD must scale worst (Figure 8b's observation).
	lud := at(t, rep, "LUD", "scale@8(sim)").Value
	for _, name := range []string{"GEMM", "Backprop"} {
		if other := at(t, rep, name, "scale@8(sim)").Value; other < lud {
			t.Errorf("LUD (%vx) should scale worse than %s (%vx)", lud, name, other)
		}
	}
}

func TestFigure9Ordering(t *testing.T) {
	rep := report("fig9")
	tpu1 := at(t, rep, "Average", "1xTPU").Value
	rtx := at(t, rep, "Average", "RTX2080").Value
	tpu8 := at(t, rep, "Average", "8xTPU").Value
	if rtx < 10*tpu1 {
		t.Errorf("RTX 2080 (%vx) should dwarf one Edge TPU (%vx)", rtx, tpu1)
	}
	if tpu8 < tpu1 {
		t.Errorf("8 TPUs (%vx) should beat 1 (%vx)", tpu8, tpu1)
	}
	// The paper's Figure 9(b) energy ordering (8xTPU most frugal)
	// emerges only at paper-scale inputs where amortization works; at
	// quick scale the 40 W idle floor dominates slow TPU runs, so the
	// energy columns are recorded in EXPERIMENTS.md from -full runs
	// rather than asserted here.
}

func TestTable6Static(t *testing.T) {
	if rep := report("table6"); len(rep.Rows) != 4 {
		t.Fatalf("Table 6 has 4 accelerators, got %d", len(rep.Rows))
	}
}

func TestReportFormatting(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Header: []string{"a", "b", "c"}}
	rep.addRow("1", pct(0.5), label("-"))
	rep.addRow("2", pct(0.25), label("-"))
	rep.addRow("mean", rep.mean(rep.Rows, "b"), label("-"))
	rep.addNote("n %d", 5)
	s := rep.String()
	for _, want := range []string{"== x: t ==", "  a     b       c", "  1     50.00%  -", "  mean  37.50%  -", "note: n 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("report output missing %q:\n%s", want, s)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	rep := report("ablations")
	if len(rep.Rows) != 4 {
		t.Fatalf("4 ablations expected, got %d", len(rep.Rows))
	}
	// Locality and the fast compiler path must not lose to their
	// ablated variants; the on-device reduce must not win.
	for _, m := range rowNames(rep)[:3] {
		if impact := at(t, rep, m, "impact").Value; impact < 0.99 {
			t.Errorf("%s: ablated variant unexpectedly faster (%vx)", m, impact)
		}
	}
}

func TestPrecisionShape(t *testing.T) {
	rep := report("precision")
	plain := at(t, rep, "tpuGemm (conv2D)", "RMSE").Value
	precise := at(t, rep, "GemmPrecise (dual-portion)", "RMSE").Value
	if precise >= plain/10 {
		t.Errorf("dual-portion GEMM should cut RMSE >10x: %v vs %v", precise, plain)
	}
	if cost := at(t, rep, "GemmPrecise (dual-portion)", "vs tpuGemm").Value; cost < 1.2 || cost > 8 {
		t.Errorf("precision cost %vx outside the expected range", cost)
	}
}

func TestSensitivityOrderingsStable(t *testing.T) {
	rep := report("sensitivity")
	if len(rep.Rows) != 4 {
		t.Fatalf("4 knobs expected, got %d", len(rep.Rows))
	}
	for _, k := range rowNames(rep) {
		if at(t, rep, k, "conv2D>FC at x0.5..x2").Label != "yes" {
			t.Errorf("%s: conv2D-vs-FC ordering flipped under perturbation", k)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig7"); !ok {
		t.Fatal("fig7 must exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
	if len(All()) != 13 {
		t.Fatalf("expected 13 experiments, got %d", len(All()))
	}
}

// TestExperimentsOpenThroughOpts pins the one way a tool reaches the
// contexts the experiments construct: Opts.Open. Every experiment that
// charges virtual time on a runtime context must open it through the
// hook, so a registry (or fault plan, or trace switch) the hook injects
// sees all of its instructions. The device-level and closed-form
// experiments open none.
func TestExperimentsOpenThroughOpts(t *testing.T) {
	noContext := map[string]bool{"table1": true, "exchange": true, "model": true, "table6": true}
	for _, e := range All() {
		r := quick()[e.ID]
		switch {
		case noContext[e.ID]:
			if r.opened != 0 || r.instrs != 0 {
				t.Errorf("%s: opened %d context(s), %v instructions; want none", e.ID, r.opened, r.instrs)
			}
		case r.opened == 0:
			t.Errorf("%s: opened no context through Opts.Open", e.ID)
		case r.instrs == 0:
			t.Errorf("%s: shared registry recorded no instructions from %d context(s)", e.ID, r.opened)
		}
	}
}

// instructions sums gptpu_instructions_total over its op labels.
func instructions(reg *telemetry.Registry) float64 {
	var n float64
	for _, m := range reg.Snapshot() {
		if m.Name == "gptpu_instructions_total" {
			for _, s := range m.Samples {
				n += s.Value
			}
		}
	}
	return n
}

// ledgerPath pins every numeric cell of the quick sweep.
const ledgerPath = "testdata/ledger_quick.json"

// cellEntry is one ledger cell, named experiment/row/column.
type cellEntry struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// TestLedger pins every numeric cell of the quick sweep, bit for bit,
// against ledgerPath and names each cell that moved, appeared or went.
// A missing ledger is written from this run and the test fails: to
// re-pin after a change that moves numbers on purpose, delete the file
// and run the test twice.
func TestLedger(t *testing.T) {
	var got []cellEntry
	seen := map[string]bool{}
	for _, e := range All() {
		rep := report(e.ID)
		for _, row := range rep.Rows {
			for j, c := range row {
				if !c.isNum() {
					continue
				}
				name := e.ID + "/" + row[0].Label + "/" + rep.Header[j]
				if seen[name] {
					t.Errorf("cell name %s is not unique", name)
				}
				seen[name] = true
				got = append(got, cellEntry{name, c.Unit, c.Value})
			}
		}
	}
	data, err := os.ReadFile(ledgerPath)
	if errors.Is(err, fs.ErrNotExist) {
		var b bytes.Buffer
		b.WriteString("[\n")
		for i, c := range got {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if i < len(got)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(ledgerPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s with %d cells; run the test again to check against it", ledgerPath, len(got))
	}
	var want []cellEntry
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	now := map[string]cellEntry{}
	for _, c := range got {
		now[c.Name] = c
	}
	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w.Name] = true
		switch c, ok := now[w.Name]; {
		case !ok:
			t.Errorf("%s: pinned at %v, now gone", w.Name, w.Value)
		case math.Float64bits(c.Value) != math.Float64bits(w.Value):
			t.Errorf("%s moved: %v -> %v", w.Name, w.Value, c.Value)
		case c.Unit != w.Unit:
			t.Errorf("%s: unit %q -> %q", w.Name, w.Unit, c.Unit)
		}
	}
	for _, c := range got {
		if !pinned[c.Name] {
			t.Errorf("%s: new cell %v, not pinned", c.Name, c.Value)
		}
	}
}
