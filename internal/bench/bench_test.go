package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// parse a "1.23x" / "1.23" / "4.56%" cell into a float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	s = strings.TrimSuffix(s, "ms")
	s = strings.TrimSuffix(s, "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", s, err)
	}
	return v
}

func findRow(t *testing.T, rep *Report, name string) []string {
	t.Helper()
	for _, r := range rep.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("%s: row %q missing", rep.ID, name)
	return nil
}

func TestTable1MatchesPaperRates(t *testing.T) {
	rep := Table1(Opts{})
	if len(rep.Rows) != 11 {
		t.Fatalf("Table 1 must list 11 operators, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		ratio := cell(t, r[5])
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: OPS ratio %v outside 5%%", r[0], ratio)
		}
	}
}

func TestDataExchangeMatchesPaper(t *testing.T) {
	rep := DataExchange(Opts{})
	r1 := findRow(t, rep, "1MB")
	if got := cell(t, r1[2]); got < 5.5 || got > 6.5 {
		t.Errorf("1MB latency %vms, want ~6ms", got)
	}
	r8 := findRow(t, rep, "8MB")
	if got := cell(t, r8[2]); got < 47 || got > 49 {
		t.Errorf("8MB latency %vms, want ~48ms", got)
	}
}

func TestModelCreationSpeedup(t *testing.T) {
	rep := ModelCreation(Opts{})
	sp := cell(t, findRow(t, rep, "speedup")[2])
	if sp < 1400 || sp > 1600 {
		t.Errorf("compile speedup %v, want ~1500", sp)
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := Figure6(Opts{})
	var prevConv float64
	for i, r := range rep.Rows {
		conv := cell(t, r[2])
		fc := cell(t, r[3])
		if fc >= conv {
			t.Errorf("row %s: FC (%v) must lose to conv2D (%v)", r[0], fc, conv)
		}
		if i > 0 && conv < prevConv {
			t.Errorf("conv2D speedup must grow with size (amortization): %v after %v", conv, prevConv)
		}
		prevConv = conv
	}
	// The conv2D/FC gap must widen with size toward the paper's 43x.
	first := cell(t, rep.Rows[0][4])
	last := cell(t, rep.Rows[len(rep.Rows)-1][4])
	if last <= first {
		t.Errorf("conv2D advantage should grow with size: %v -> %v", first, last)
	}
}

func TestTable5Shape(t *testing.T) {
	rep := Table5(Opts{})
	if len(rep.Rows) != 7 {
		t.Fatalf("Table 5 needs 7 ranges, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		fb := cell(t, r[4])
		tpu := cell(t, r[6])
		switch r[0] {
		case "0-2", "0-4", "0-8", "0-16":
			if fb > 0.01 {
				t.Errorf("%s: FBGEMM should be exact, RMSE %v", r[0], fb)
			}
		case "0-32", "0-64", "0-128":
			if fb < 0.2 {
				t.Errorf("%s: FBGEMM should overflow, RMSE %v", r[0], fb)
			}
		}
		if tpu > 0.02 {
			t.Errorf("%s: tpuGemm RMSE %v should stay ~0", r[0], tpu)
		}
	}
}

func TestTable4UnderstandableErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("functional accuracy sweep")
	}
	rep := Table4(Opts{})
	// Default-dataset errors must stay small for the well-conditioned
	// apps (the iterative eliminations are documented exceptions).
	for _, name := range []string{"GEMM", "PageRank", "Blackscholes", "HotSpot", "Backprop"} {
		r := findRow(t, rep, name)
		if rmse := cell(t, r[7]); rmse > 5 {
			t.Errorf("%s default RMSE %v%% too high", name, rmse)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device sweep")
	}
	rep := Figure8(Opts{})
	for _, r := range rep.Rows {
		if r[0] == "Average" {
			continue
		}
		s2 := cell(t, r[1])
		s8 := cell(t, r[3])
		if s8 < s2*0.99 {
			t.Errorf("%s: 8 TPUs (%v) should not lose to 2 (%v)", r[0], s8, s2)
		}
		scale := cell(t, r[5])
		if scale < 0.99 {
			t.Errorf("%s: negative multi-TPU scaling %v", r[0], scale)
		}
	}
	// LUD must scale worst (Figure 8b's observation).
	lud := cell(t, findRow(t, rep, "LUD")[5])
	for _, name := range []string{"GEMM", "Backprop"} {
		if other := cell(t, findRow(t, rep, name)[5]); other < lud {
			t.Errorf("LUD (%vx) should scale worse than %s (%vx)", lud, name, other)
		}
	}
}

func TestFigure9Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("GPU comparison sweep")
	}
	rep := Figure9(Opts{})
	avg := findRow(t, rep, "Average")
	tpu1 := cell(t, avg[1])
	rtx := cell(t, avg[2])
	tpu8 := cell(t, avg[4])
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
	rep := Table6(Opts{})
	if len(rep.Rows) != 4 {
		t.Fatalf("Table 6 has 4 accelerators, got %d", len(rep.Rows))
	}
}

func TestReportFormatting(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	rep.AddRow("1", "2")
	rep.AddNote("n %d", 5)
	s := rep.String()
	for _, want := range []string{"== x: t ==", "a", "1", "note: n 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("report output missing %q:\n%s", want, s)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	rep := Ablations(Opts{})
	if len(rep.Rows) != 4 {
		t.Fatalf("4 ablations expected, got %d", len(rep.Rows))
	}
	// Locality and the fast compiler path must not lose to their
	// ablated variants; the on-device reduce must not win.
	for _, r := range rep.Rows[:3] {
		if impact := cell(t, r[3]); impact < 0.99 {
			t.Errorf("%s: ablated variant unexpectedly faster (%vx)", r[0], impact)
		}
	}
}

func TestPrecisionShape(t *testing.T) {
	rep := Precision(Opts{})
	plain := cell(t, rep.Rows[0][1])
	precise := cell(t, rep.Rows[1][1])
	if precise >= plain/10 {
		t.Errorf("dual-portion GEMM should cut RMSE >10x: %v vs %v", precise, plain)
	}
	cost := cell(t, rep.Rows[1][3])
	if cost < 1.2 || cost > 8 {
		t.Errorf("precision cost %vx outside the expected range", cost)
	}
}

func TestSensitivityOrderingsStable(t *testing.T) {
	rep := Sensitivity(Opts{})
	if len(rep.Rows) != 4 {
		t.Fatalf("4 knobs expected, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r[4] != "yes" {
			t.Errorf("%s: conv2D-vs-FC ordering flipped under perturbation", r[0])
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
	if len(All()) != 18 {
		t.Fatalf("expected 18 experiments, got %d", len(All()))
	}
}

func TestServeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("network serving sweep")
	}
	rep := Serve(Opts{})
	un := findRow(t, rep, "unbatched")
	ba := findRow(t, rep, "batched")
	if got := cell(t, un[6]); got != 0 {
		t.Errorf("unbatched run recorded %v batches, want 0", got)
	}
	if got := cell(t, ba[6]); got < 2 {
		t.Errorf("batched run coalesced only %v flushes", got)
	}
	// Every request must have ridden a batch (avg-batch > 1 shows real
	// coalescing, not one-request flushes).
	if avg := cell(t, ba[7]); avg <= 1 {
		t.Errorf("batched run averaged %v requests per flush, want > 1", avg)
	}
	for _, r := range [][]string{un, ba} {
		if shed := cell(t, r[8]); shed != 0 {
			t.Errorf("%s: %v requests shed at bench concurrency, want 0", r[0], shed)
		}
	}
	// Throughput ordering is asserted loosely — hosts vary, but batching
	// must never halve throughput under a pipelined open load.
	if sp := cell(t, ba[9]); sp < 0.5 {
		t.Errorf("batched throughput collapsed: %vx of unbatched", sp)
	}
	// A failed client call is counted into a WARNING note, never a panic.
	for _, n := range rep.Notes {
		if strings.Contains(n, "requests failed") {
			t.Errorf("healthy loopback run reported failures: %s", n)
		}
	}
}

// TestFailuresClassify: bench clients count failed calls by the typed
// class of the reply (wrapped or not), and everything without one —
// dial failures, lost connections — as "conn".
func TestFailuresClassify(t *testing.T) {
	f := &failures{}
	f.add(server.ErrOverloaded, 1)
	f.add(fmt.Errorf("call 7: %w [trace=ab]", server.ErrOverloaded), 1)
	f.add(fmt.Errorf("%w: retry budget", server.ErrTransient), 1)
	f.add(net.ErrClosed, 4)
	if got, want := f.String(), "conn=4 overloaded=2 transient=1"; got != want || f.total() != 7 {
		t.Fatalf("failures = %q (total %d), want %q (total 7)", got, f.total(), want)
	}
}

func TestReportOutputFormats(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	rep.AddRow("1", "2,2") // comma needs CSV quoting
	rep.AddNote("hello")

	var csvBuf strings.Builder
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), `"2,2"`) {
		t.Fatalf("CSV quoting missing:\n%s", csvBuf.String())
	}

	var jsonBuf strings.Builder
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := jsonDecode(jsonBuf.String(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed["id"] != "x" {
		t.Fatalf("JSON id %v", parsed["id"])
	}
	rows := parsed["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("JSON rows %v", rows)
	}
}

func jsonDecode(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

// TestClusterShape runs the routed-cluster scaling sweep in quick mode
// and checks its structural invariants: one row per daemon count, a
// device column that doubles with the daemons, and an aggregate
// throughput that genuinely scales (the pace-governed daemons make the
// wall clock track simulated capacity, so scaling < 2x at 4 daemons
// means routing overhead or failover storms ate the added capacity —
// the ≥3x acceptance gate itself is asserted on the -full run that
// produces BENCH_PR8.json).
func TestClusterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon network sweep")
	}
	rep := ClusterBench(Opts{})
	if len(rep.Rows) != 3 {
		t.Fatalf("cluster report has %d rows, want 3 (1/2/4 daemons)", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		daemons, devices := cell(t, r[0]), cell(t, r[1])
		if devices != 2*daemons {
			t.Errorf("%v daemons report %v devices, want %v", daemons, devices, 2*daemons)
		}
	}
	one := findRow(t, rep, "1")
	four := findRow(t, rep, "4")
	if got := cell(t, one[8]); got != 1.0 {
		t.Errorf("baseline speedup %v, want 1.00x", got)
	}
	if got := cell(t, four[8]); got < 2.0 {
		t.Errorf("4-daemon speedup %vx — routed scaling collapsed", got)
	}
	if got := cell(t, four[7]); got < 32 {
		t.Errorf("affinity table holds %v keys at 4 daemons, want the key space resident", got)
	}
}
