package server

import (
	"time"

	"repro/internal/telemetry"
)

// waitBuckets ladder reply-write wall time from 10 µs to 10 s.
var waitBuckets = telemetry.ExpBuckets(1e-5, 10, 7)

// serverMetrics holds the serving layer's telemetry handles. They live
// in the same registry as the runtime's scheduler and device counters
// (Server.Metrics), so one -metrics endpoint exports the whole stack.
// The connection gauge, the wire-byte counters and the request,
// reply and latency families belong to the daemon's FrontDoor.
type serverMetrics struct {
	reg *telemetry.Registry

	inflight    *telemetry.Gauge     // admitted requests being served
	shed        *telemetry.Counter   // admission rejections (ErrOverloaded)
	replyWrite  *telemetry.Histogram // reply frame socket write
	batches     *telemetry.Counter   // micro-batch flushes
	batchedReqs *telemetry.Counter   // requests served via a batch
	weightHits  *telemetry.Counter   // batcher weight-buffer cache hits
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &serverMetrics{
		reg: reg,
		inflight: reg.Gauge("gptpu_serve_inflight",
			"Requests admitted and currently being served.").With(),
		shed: reg.Counter("gptpu_serve_shed_total",
			"Requests shed by the admission controller (ErrOverloaded).").With(),
		replyWrite: reg.Histogram("gptpu_serve_reply_write_seconds",
			"Wall seconds writing one reply frame to its connection (lock wait + write + flush).",
			waitBuckets).With(),
		batches: reg.Counter("gptpu_serve_batches_total",
			"Micro-batch flushes submitted to the runtime.").With(),
		batchedReqs: reg.Counter("gptpu_serve_batched_requests_total",
			"GEMM requests served through a micro-batch.").With(),
		weightHits: reg.Counter("gptpu_serve_weight_cache_hits_total",
			"Micro-batch flushes that reused a cached weight buffer (skipping re-quantization).").With(),
	}
}

// admission is the bounded-in-flight controller: a semaphore that
// sheds immediately when full. "Shed with a typed reply" beats
// "queue unboundedly and hang" for a service — the client can retry
// against another replica or back off (the Figure 4 OPQ keeps its
// own backpressure below this layer).
type admission struct {
	slots chan struct{}
	met   *serverMetrics
}

func newAdmission(maxInFlight int, met *serverMetrics) *admission {
	if maxInFlight <= 0 {
		maxInFlight = 64
	}
	return &admission{slots: make(chan struct{}, maxInFlight), met: met}
}

// tryAcquire claims an in-flight slot, or reports ErrOverloaded
// without blocking.
func (a *admission) tryAcquire() error {
	select {
	case a.slots <- struct{}{}:
		a.met.inflight.Add(1)
		return nil
	default:
		a.met.shed.Inc()
		return ErrOverloaded
	}
}

// release returns a slot.
func (a *admission) release() {
	<-a.slots
	a.met.inflight.Add(-1)
}

// expired reports whether a request's client deadline has passed.
func expired(arrived time.Time, deadlineMillis uint32, now time.Time) bool {
	if deadlineMillis == 0 {
		return false
	}
	return now.After(arrived.Add(time.Duration(deadlineMillis) * time.Millisecond))
}
