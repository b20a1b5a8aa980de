package bench

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"runtime"
)

// WriteCSV renders the report as CSV: one header row, then data rows.
// Notes are appended as comment-style rows with an empty first cell.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if err := cw.Write([]string{"#", n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonEnv pins the host execution environment a report was produced
// under, so BENCH_* files stay comparable across machines: a speedup
// column only means something next to the parallelism that was
// physically available.
type jsonEnv struct {
	GOMAXPROCS int `json:"gomaxprocs"`
}

// jsonReport is the stable JSON shape of a report.
type jsonReport struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Env    jsonEnv    `json:"env"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// WriteJSON renders the report as a JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		ID: r.ID, Title: r.Title,
		Env:    jsonEnv{GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Header: r.Header, Rows: r.Rows, Notes: r.Notes,
	})
}
