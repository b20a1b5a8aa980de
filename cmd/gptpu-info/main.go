// Command gptpu-info prints the simulated platform inventory: the
// machine topology of paper section 3.1 (up to 8 M.2 Edge TPUs behind
// quad-device PCIe switch cards), the power model, the calibrated
// cost-model constants with their provenance, and the catalog of
// telemetry metrics a daemon and a router export (-catalog for just
// that).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

func main() {
	devices := flag.Int("devices", 8, "number of attached Edge TPUs (1-8)")
	catalogOnly := flag.Bool("catalog", false, "print only the telemetry metric catalog")
	flag.Parse()

	if *catalogOnly {
		printCatalog()
		return
	}

	p := timing.Default()
	fmt.Println("GPTPU simulated platform")
	fmt.Println("------------------------")
	fmt.Printf("Host CPU:        AMD Ryzen 3700X model (8 cores, %.0f GFLOP/s OpenBLAS single-core)\n", p.CPU.GemmFlops/1e9)
	fmt.Printf("Main memory:     %.0f GB/s shared bandwidth model\n", p.CPU.MemBandwidth/1e9)
	cards := (*devices + pcie.DevicesPerCard - 1) / pcie.DevicesPerCard
	fmt.Printf("Edge TPUs:       %d x M.2 (PCIe 2.0 x1 each) on %d quad-TPU switch card(s)\n", *devices, cards)
	fmt.Printf("  on-chip mem:   %d MB per device\n", p.TPUMemBytes>>20)
	fmt.Printf("  exchange rate: %.0f ms/MB (measured, section 3.2)\n", p.DataExchangeSecPerMB*1e3)
	fmt.Printf("  matrix unit:   %dx%dx8-bit (mean/max favour %dx%d)\n",
		isa.ArithTile, isa.ArithTile, isa.ReduceTile, isa.ReduceTile)
	fmt.Println()
	fmt.Println("Power model (paper section 8.1 / Table 6)")
	fmt.Printf("  platform idle:    %.0f W\n", energy.PlatformIdleWatts)
	fmt.Printf("  loaded CPU core:  %.1f-%.1f W\n", energy.CPUCoreWattsLo, energy.CPUCoreWattsHi)
	fmt.Printf("  active Edge TPU:  %.1f-%.1f W\n", energy.TPUWattsLo, energy.TPUWattsHi)
	fmt.Printf("  RTX 2080:         %.0f W   Jetson Nano: %.0f W (idle %.1f W)\n",
		energy.RTX2080Watts, energy.JetsonNanoWatts, energy.JetsonIdleWatts)
	fmt.Println()
	fmt.Println("Instruction cost table (calibrated to Table 1)")
	fmt.Printf("  %-15s %12s %14s %12s\n", "operator", "OPS(paper)", "overhead", "sustained")
	for _, op := range isa.AllOps() {
		oc := p.Op[op]
		fmt.Printf("  %-15s %12.2f %14v %9.2f G/s\n", op.String(), oc.PaperOPS, oc.Overhead, oc.MACRate/1e9)
	}
	fmt.Println()
	bench.Table6(bench.Opts{}).Fprint(os.Stdout)
	fmt.Println()
	printCatalog()
}

// catalog lists every metric family a deployment exports, sorted by
// name: a daemon (runtime, devices, serving, front door, flight
// recorder) and a router (cluster, front door, flight recorder) built
// over one registry. README's metrics runbook has one row per family,
// and a test holds the two equal.
func catalog() []telemetry.Desc {
	reg := telemetry.NewRegistry()
	server.New(server.Config{Metrics: reg, Obs: obs.New(obs.Config{})})
	cluster.New(cluster.Config{ProbeInterval: -1, Metrics: reg, Obs: obs.New(obs.Config{})})
	return reg.Catalog()
}

// printCatalog lists every exported metric family: name, label
// dimensions, type and help string.
func printCatalog() {
	fmt.Println("Telemetry metric catalog (Prometheus names)")
	for _, d := range catalog() {
		name := d.Name
		if len(d.Labels) > 0 {
			name += "{" + strings.Join(d.Labels, ",") + "}"
		}
		fmt.Printf("  %-48s %-9s %s\n", name, d.Type, d.Help)
	}
}
