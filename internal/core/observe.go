package core

import "time"

// TaskObserver receives per-request dispatch observations from the
// engine: stage spans (queue wait, device charge, functional exec)
// and point events (fault-injector retries, reroutes). The serving
// layer passes a request's obs.Trace here so a single waterfall spans
// admission → batcher → engine → device.
//
// Implementations must be cheap and non-blocking — the queue_wait and
// charge observations fire from the dispatch worker while it holds
// the engine lock, on the path whose FIFO charge order defines the
// deterministic virtual makespan. Observers see wall-clock time only
// and must not feed anything back into virtual-time accounting.
//
// The engine delivers the obs.StageQueueWait, StageCharge and
// StageExec stages; a graph adds StageNode.
type TaskObserver interface {
	ObserveSpan(stage string, start time.Time, d time.Duration, attr string)
	ObserveEvent(name, attr string, fault bool)
}
