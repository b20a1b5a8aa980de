package edgetpu

import (
	"strconv"

	"repro/internal/telemetry"
)

// deviceMetrics holds one device's telemetry handles. The counters
// are the device's *only* statistics storage: accessor methods like
// Execs and ResidencyStats read them back, so Context.Stats and the
// Prometheus export can never disagree.
type deviceMetrics struct {
	execs         *telemetry.Counter
	uploadBytes   *telemetry.Counter
	downloadBytes *telemetry.Counter
	hits          *telemetry.Counter
	misses        *telemetry.Counter
	evictions     *telemetry.Counter

	// Fault-injection and recovery lifecycle.
	transients  *telemetry.Counter
	kills       *telemetry.Counter
	revives     *telemetry.Counter
	probes      *telemetry.Counter
	lost        *telemetry.Gauge
	quarantined *telemetry.Gauge
}

// newDeviceMetrics registers (or joins) the per-device metric
// families on r and returns the handles for device id.
func newDeviceMetrics(r *telemetry.Registry, id int) *deviceMetrics {
	dev := strconv.Itoa(id)
	return &deviceMetrics{
		execs: r.Counter("gptpu_device_execs_total",
			"Edge TPU instructions executed per device.", "device").With(dev),
		uploadBytes: r.Counter("gptpu_device_upload_bytes_total",
			"Bytes uploaded over the device's PCIe link.", "device").With(dev),
		downloadBytes: r.Counter("gptpu_device_download_bytes_total",
			"Bytes downloaded over the device's PCIe link.", "device").With(dev),
		hits: r.Counter("gptpu_device_residency_hits_total",
			"Uploads satisfied from on-chip residency (no transfer).", "device").With(dev),
		misses: r.Counter("gptpu_device_residency_misses_total",
			"Uploads that had to cross the interconnect.", "device").With(dev),
		evictions: r.Counter("gptpu_device_residency_evictions_total",
			"LRU evictions from the 8 MB on-chip memory.", "device").With(dev),
		transients: r.Counter("gptpu_fault_transients_total",
			"Injected transient execution faults per device.", "device").With(dev),
		kills: r.Counter("gptpu_fault_kills_total",
			"Injector-scheduled permanent device failures.", "device").With(dev),
		revives: r.Counter("gptpu_fault_revives_total",
			"Failed devices returned to quarantine by revival.", "device").With(dev),
		probes: r.Counter("gptpu_fault_probes_total",
			"Recovery self-tests that promoted a quarantined device to healthy.", "device").With(dev),
		lost: r.Gauge("gptpu_device_lost",
			"1 while the device is permanently failed.", "device").With(dev),
		quarantined: r.Gauge("gptpu_device_quarantined",
			"1 while the device is revived but not yet probed back into service.", "device").With(dev),
	}
}
