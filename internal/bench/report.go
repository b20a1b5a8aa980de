// Package bench regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each
// experiment returns a Report that prints the paper's published
// values next to the values measured on the simulated platform, so
// the reproduction quality is visible row by row. A report's cells
// keep numbers as computed; its text is a view of them, and the
// quick-scale cells are pinned by TestLedger.
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

// Report is one regenerated table or figure. Header names the
// columns; each row starts with a label naming the row.
type Report struct {
	ID     string // experiment id, e.g. "table1", "fig7"
	Title  string
	Header []string
	Rows   [][]Cell
	Notes  []string
}

// A Cell is one report entry: a label, or a number kept as computed
// (fractions stay fractions, seconds stay seconds) with its unit and
// the format it prints in.
type Cell struct {
	Label string  // a label's text
	Value float64 // a number's value
	Unit  string  // a number's unit
	form  string  // a number's printf format, applied to Value*scale; "" for a label
	scale float64
}

// isNum reports whether c is a number.
func (c Cell) isNum() bool { return c.form != "" }

// String renders c as the report prints it.
func (c Cell) String() string {
	if !c.isNum() {
		return c.Label
	}
	return fmt.Sprintf(c.form, c.Value*c.scale)
}

func label(s string) Cell { return Cell{Label: s} }

// num is a number in unit printed with form.
func num(v float64, unit, form string) Cell { return Cell{Value: v, Unit: unit, form: form, scale: 1} }

// f2x is a ratio printed with 2 decimals and a trailing x.
func f2x(v float64) Cell { return num(v, "x", "%.2fx") }

// pct is a fraction printed as a percentage with 2 decimals.
func pct(v float64) Cell { return Cell{Value: v, Unit: "fraction", form: "%.2f%%", scale: 100} }

// ms is seconds printed as milliseconds.
func ms(sec float64) Cell { return Cell{Value: sec, Unit: "s", form: "%.2fms", scale: 1e3} }

// secs is seconds printed with 3 decimals.
func secs(sec float64) Cell { return num(sec, "s", "%.3fs") }

// addRow appends a row named name.
func (r *Report) addRow(name string, cells ...Cell) {
	r.Rows = append(r.Rows, append([]Cell{label(name)}, cells...))
}

// addNote appends a footnote.
func (r *Report) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// col is the index of the column named name, or -1.
func (r *Report) col(name string) int {
	for i, h := range r.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// mean is the mean of column col over rows, added in row order, with
// the column's unit and format.
func (r *Report) mean(rows [][]Cell, col string) Cell {
	i := r.col(col)
	c := rows[0][i]
	var sum float64
	for _, row := range rows {
		sum += row[i].Value
	}
	c.Value = sum / float64(len(rows))
	return c
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	lines := [][]string{r.Header, nil}
	for _, row := range r.Rows {
		var line []string
		for _, c := range row {
			line = append(line, c.String())
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(r.Header))
	for _, line := range lines {
		for i, c := range line {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, n := range widths {
		lines[1] = append(lines[1], strings.Repeat("-", n))
	}
	for _, line := range lines {
		parts := make([]string, len(line))
		for i, c := range line {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
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

// Experiment is a named generator, for the cmd front-end.
type Experiment struct {
	ID   string
	Name string
	Run  func(Opts) *Report
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Edge TPU instruction OPS/RPS characterization", table1},
		{"exchange", "Data-exchange rate (section 3.2)", dataExchange},
		{"model", "Model-creation latency (sections 3.3, 6.2.3)", modelCreation},
		{"fig6", "GEMM: FullyConnected vs conv2D vs CPU (Figure 6)", figure6},
		{"fig7", "Per-application speedup/energy/EDP vs CPU (Figure 7)", figure7},
		{"table4", "Application MAPE and RMSE (Table 4)", table4},
		{"table5", "tpuGemm vs FBGEMM (Table 5)", table5},
		{"fig8", "Multi-TPU scaling (Figure 8)", figure8},
		{"table6", "Accelerator cost and power (Table 6)", Table6},
		{"fig9", "GPU comparison (Figure 9)", figure9},
		{"ablations", "Design-decision ablations (DESIGN.md section 5)", ablations},
		{"precision", "GEMM accuracy/latency variants (section 10 extension)", precision},
		{"sensitivity", "Calibration-constant sensitivity of the conclusions", sensitivity},
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
