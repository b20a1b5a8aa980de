// Package bench regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each
// experiment returns a Report that prints the paper's published
// values next to the values measured on the simulated platform, so
// the reproduction quality is visible row by row.
//
// Performance experiments run timing-only at (scaled) Table 3 sizes;
// accuracy experiments run fully functionally at sizes the functional
// simulator handles in reasonable wall time. Opts.Full selects the
// larger configuration used by cmd/gptpu-bench; the default (quick)
// configuration is what the test suite exercises.
//
// Every result is on the virtual clock. Host wall-clock performance is
// measured by the repo benchmark (benchmark/) and by go test -bench.
package bench

import (
	"fmt"
	"io"
	"strings"

	gptpu "repro"
)

// Opts configures experiment scale and how experiments reach the
// runtime.
type Opts struct {
	// Full runs paper-scale (or closest feasible) configurations;
	// quick mode shrinks inputs for test-suite latency.
	Full bool
	// Open opens every context an experiment runs on (nil =
	// gptpu.Open). A tool that wants one metrics registry, a fault plan
	// or tracing across the contexts the experiments construct wraps
	// gptpu.Open here.
	Open func(gptpu.Config) *gptpu.Context
}

// open opens a context through o.Open.
func (o Opts) open(cfg gptpu.Config) *gptpu.Context {
	if o.Open != nil {
		return o.Open(cfg)
	}
	return gptpu.Open(cfg)
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string // experiment id, e.g. "table1", "fig7"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a footnote.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the report to a string.
func (r *Report) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f2x formats a ratio with a trailing x.
func f2x(v float64) string { return fmt.Sprintf("%.2fx", v) }

// pct formats a fraction as a percentage with 2 decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// ms formats seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.2fms", sec*1e3) }

// secs formats seconds.
func secs(sec float64) string { return fmt.Sprintf("%.3fs", sec) }

// Experiment is a named generator, for the cmd front-end.
type Experiment struct {
	ID   string
	Name string
	Run  func(Opts) *Report
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Edge TPU instruction OPS/RPS characterization", Table1},
		{"exchange", "Data-exchange rate (section 3.2)", DataExchange},
		{"model", "Model-creation latency (sections 3.3, 6.2.3)", ModelCreation},
		{"fig6", "GEMM: FullyConnected vs conv2D vs CPU (Figure 6)", Figure6},
		{"fig7", "Per-application speedup/energy/EDP vs CPU (Figure 7)", Figure7},
		{"table4", "Application MAPE and RMSE (Table 4)", Table4},
		{"table5", "tpuGemm vs FBGEMM (Table 5)", Table5},
		{"fig8", "Multi-TPU scaling (Figure 8)", Figure8},
		{"table6", "Accelerator cost and power (Table 6)", Table6},
		{"fig9", "GPU comparison (Figure 9)", Figure9},
		{"ablations", "Design-decision ablations (DESIGN.md section 5)", Ablations},
		{"precision", "GEMM accuracy/latency variants (section 10 extension)", Precision},
		{"sensitivity", "Calibration-constant sensitivity of the conclusions", Sensitivity},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
