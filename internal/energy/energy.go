// Package energy reproduces the paper's wall-power methodology
// (section 8.1): "we aggregate the total system power throughout the
// application execution time", measured with a Watts Up meter. Here
// the meter is replaced by integrating per-component active power
// over the virtual resource timelines plus the platform idle floor.
//
// All power figures come from the paper:
//   - platform idle: 40 W (southbridge, NVMe, peripherals);
//   - a loaded AMD Matisse core: 6.5 W to 12.5 W;
//   - an active Edge TPU: 0.9 W to 1.4 W;
//   - Table 6: RTX 2080 215 W, Jetson Nano 10 W, 8x Edge TPU 16 W.
package energy

import (
	"strings"

	"repro/internal/timing"
)

// Power constants (watts). Ranges from the paper collapse to their
// midpoints for the default accounting; the lo/hi bounds are kept for
// sensitivity tests.
const (
	PlatformIdleWatts = 40.0

	CPUCoreWattsLo = 6.5
	CPUCoreWattsHi = 12.5
	CPUCoreWatts   = (CPUCoreWattsLo + CPUCoreWattsHi) / 2

	TPUWattsLo = 0.9
	TPUWattsHi = 1.4
	TPUWatts   = (TPUWattsLo + TPUWattsHi) / 2

	RTX2080Watts    = 215.0
	JetsonNanoWatts = 10.0
	// JetsonIdleWatts is the development kit's idle draw noted in
	// section 9.4 ("the idle power of the Jetson nano development kit
	// is simply 0.5 W").
	JetsonIdleWatts = 0.5
)

// Hardware cost table (Table 6, USD) and the Edge TPU ratings it
// lists (watts; the GPUs' ratings are the power constants above).
const (
	EdgeTPUCost     = 24.99
	RTX2080Cost     = 699.66
	JetsonNanoCost  = 123.99
	EdgeTPU8Cost    = 159.96 // 4x dual Edge TPU modules
	EdgeTPUWattsTP  = 2.0
	EdgeTPU8WattsTP = 16.0
)

// PowerFor maps a timeline resource name to its active power draw.
// Resource naming follows the conventions of the simulator packages:
// "edgetpuN", "cpu-coreN", "pcie-*", "gpu-rtx2080", "gpu-jetson".
func PowerFor(name string) float64 {
	switch {
	case strings.HasPrefix(name, "edgetpu"):
		return TPUWatts
	case strings.HasPrefix(name, "cpu-core"):
		return CPUCoreWatts
	case strings.HasPrefix(name, "gpu-rtx2080"):
		return RTX2080Watts
	case strings.HasPrefix(name, "gpu-jetson"):
		return JetsonNanoWatts
	default:
		// PCIe links and switches draw negligible incremental power;
		// their cost is folded into the platform idle floor.
		return 0
	}
}

// Report is an energy accounting for one application run.
type Report struct {
	Makespan timing.Duration
	// ActiveJoules is the energy attributable to busy components.
	ActiveJoules float64
	// IdleJoules is the platform floor over the whole run.
	IdleJoules float64
}

// TotalJoules is the wall-meter reading the paper reports.
func (r Report) TotalJoules() float64 { return r.ActiveJoules + r.IdleJoules }

// EDP is the energy-delay product (joule-seconds) of Figure 7.
func (r Report) EDP() float64 { return r.TotalJoules() * timing.Seconds(r.Makespan) }

// Measure integrates power over a finished timeline: every resource
// contributes its busy time at PowerFor(name), and the platform idle
// floor applies across the makespan.
func Measure(tl *timing.Timeline) Report {
	return MeasureWith(tl, PowerFor, PlatformIdleWatts)
}

// MeasureWith is Measure with a custom power map and idle floor (used
// for the Jetson platform, whose idle floor differs).
func MeasureWith(tl *timing.Timeline, powerFor func(string) float64, idleWatts float64) Report {
	mk := tl.Makespan()
	rep := Report{Makespan: mk, IdleJoules: idleWatts * timing.Seconds(mk)}
	for _, r := range tl.Resources() {
		rep.ActiveJoules += powerFor(r.Name) * timing.Seconds(r.BusyTime())
	}
	return rep
}
