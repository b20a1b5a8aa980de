// Package pcie models the interconnect of the GPTPU prototype machine
// (paper section 3.1): M.2 Edge TPUs each occupying a single PCIe 2.0
// lane, grouped four to a card behind a PCIe switch (the custom
// quad-EdgeTPU expansion card of Figure 1), with every card's switch
// one hop from the host root complex.
//
// Transfers charge virtual time on two resources: the device's own x1
// link at the measured data-exchange rate (6 ms/MB, section 3.2), and
// the card's shared switch uplink, whose four lanes let four
// concurrent transfers proceed at full speed but throttle denser
// contention.
package pcie

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/timing"
)

// DevicesPerCard matches the quad-EdgeTPU PCIe card: "each
// quad-EdgeTPU PCIe card contains 4x M.2 Edge TPUs with M.2 slots
// connected to a PCIe switch".
const DevicesPerCard = 4

// uplinkLanes is the lane count of each expansion slot, divided evenly
// among the card's four devices.
const uplinkLanes = 4

// Interconnect is the host-to-device transfer fabric.
type Interconnect struct {
	params  *timing.Params
	inj     *fault.Injector    // nil = no injected link degradation
	links   []*timing.Resource // one x1 link per device
	uplinks []*timing.Resource // one switch uplink per card
	cardOf  []int
}

// NewInjected builds an interconnect for numDevices Edge TPUs on tl,
// packing them four per switch card. inj's per-device LinkScale
// multipliers degrade individual links' transfer latency (nil = none).
func NewInjected(tl *timing.Timeline, params *timing.Params, numDevices int, inj *fault.Injector) *Interconnect {
	if numDevices <= 0 {
		panic(fmt.Sprintf("pcie: need at least one device, got %d", numDevices))
	}
	ic := &Interconnect{params: params, inj: inj}
	numCards := (numDevices + DevicesPerCard - 1) / DevicesPerCard
	for c := 0; c < numCards; c++ {
		ic.uplinks = append(ic.uplinks, tl.NewResource(fmt.Sprintf("pcie-card%d-uplink", c)))
	}
	for d := 0; d < numDevices; d++ {
		ic.links = append(ic.links, tl.NewResource(fmt.Sprintf("pcie-dev%d-link", d)))
		ic.cardOf = append(ic.cardOf, d/DevicesPerCard)
	}
	return ic
}

// TransferSpan schedules a host<->device transfer of the given byte
// count for device dev, ready at the given time, and returns its
// completion time. Direction is symmetric in this model (the measured
// exchange rate covers both). sp tags the link and uplink occupancy
// for the trace with the phase (upload/download), operator and task
// that moved the bytes.
func (ic *Interconnect) TransferSpan(dev int, bytes int64, ready timing.Duration, sp timing.Span) timing.Duration {
	if dev < 0 || dev >= len(ic.links) {
		panic(fmt.Sprintf("pcie: device %d out of range [0,%d)", dev, len(ic.links)))
	}
	if bytes <= 0 {
		return ready
	}
	if sp.Bytes == 0 {
		sp.Bytes = bytes
	}
	linkTime := ic.params.TransferTime(bytes)
	// A degraded link (injected fault) stretches this device's transfer
	// time; the shared card uplink below still carries the bytes at
	// nominal speed, so degradation stays local to the sick device.
	if s := ic.inj.LinkScale(dev); s != 1 {
		linkTime = time.Duration(float64(linkTime) * s)
	}
	start, end := ic.links[dev].AcquireSpan(ready, linkTime, sp)
	// The switch uplink carries the same bytes with 4x the lane count;
	// it only becomes the bottleneck when more than four devices'
	// worth of traffic share one card (not physically possible here)
	// or when transfers pile up faster than the card drains them.
	upTime := linkTime / uplinkLanes
	_, upEnd := ic.uplinks[ic.cardOf[dev]].AcquireSpan(start, upTime, sp)
	if upEnd > end {
		end = upEnd
	}
	return end
}

// LinkBusy returns the total busy time of device dev's link, used by
// the energy model and utilization reports.
func (ic *Interconnect) LinkBusy(dev int) timing.Duration { return ic.links[dev].BusyTime() }
