package bench

import "testing"

// BenchmarkExperiments regenerates each experiment at quick scale, one
// sub-benchmark per All() entry (cmd/gptpu-bench -full runs the
// paper-scale configurations).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(e.Run(Opts{}).Rows) == 0 {
					b.Fatal("experiment produced no rows")
				}
			}
		})
	}
}
