package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	gptpu "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config configures a serving daemon. The zero value serves on one
// device with micro-batching enabled.
type Config struct {
	// Devices is the simulated Edge TPU count behind the daemon
	// (0 = 1).
	Devices int
	// MaxInFlight bounds admitted requests; arrivals beyond it are
	// shed with ErrOverloaded (0 = 64).
	MaxInFlight int
	// Metrics is the telemetry registry the daemon and its runtime
	// record into (nil = a fresh registry, exposed via Metrics).
	Metrics *telemetry.Registry
	// Fault is the deterministic fault-injection plan for the daemon's
	// device pool (nil = no injected faults).
	Fault *fault.Config
	// RetryBudget bounds the runtime's per-instruction dispatch
	// retries under injected faults (0 = the runtime default of 8).
	RetryBudget int
	// Obs is the flight recorder: per-request trace waterfalls, the
	// windowed stage quantiles, and the postmortem dump. nil disables
	// request tracing entirely (zero per-request overhead).
	Obs *obs.Recorder
	// Logger receives structured serving-path logs with trace-ID and
	// request-ID attributes (nil = discard).
	Logger *slog.Logger
	// ShardID is the daemon's cluster identity, reported in health
	// probe replies so a router can verify it is talking to the member
	// it configured (empty = unnamed).
	ShardID string
}

// batchMaxElems is the "small GEMM" threshold: requests whose A or B
// exceed this many elements (a 256x256 matrix) bypass the batcher.
const batchMaxElems = 65536

// Server is the gptpu-serve daemon: one shared runtime context, an
// admission controller, a GEMM micro-batcher, and a TCP front door.
type Server struct {
	cfg  Config
	gx   *gptpu.Context
	met  *serverMetrics
	adm  *admission
	bat  *batcher
	rec  *obs.Recorder
	door *FrontDoor
}

// New builds a daemon over a fresh shared runtime context.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	met := newServerMetrics(reg)
	gx := gptpu.Open(gptpu.Config{
		Devices:     cfg.Devices,
		Metrics:     reg,
		Fault:       cfg.Fault,
		RetryBudget: cfg.RetryBudget,
	})
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Obs != nil {
		cfg.Obs.Export(reg)
	}
	s := &Server{
		cfg: cfg,
		gx:  gx,
		met: met,
		adm: newAdmission(cfg.MaxInFlight, met),
		rec: cfg.Obs,
		bat: newBatcher(gx, met, batchMaxRequests),
	}
	s.door = NewFrontDoor("gptpu_serve", reg, cfg.Obs, logger, DoorOwner{
		Health:       s.health,
		Handle:       s.handleRequest,
		Settle:       s.adm.release,
		WriteSeconds: met.replyWrite,
	})
	return s
}

// Listen binds the daemon's TCP front door (addr like ":8477" or
// "127.0.0.1:0" for an ephemeral port).
func (s *Server) Listen(addr string) error { return s.door.Listen(addr) }

// Addr returns the bound listen address (empty before Listen).
func (s *Server) Addr() string { return s.door.Addr() }

// Metrics returns the registry the daemon and its runtime record
// into, for the metrics listener (Process, telemetry.Listen).
func (s *Server) Metrics() *telemetry.Registry { return s.met.reg }

// Runtime exposes the shared context (virtual-time and scheduler
// introspection for benchmarks and tests).
func (s *Server) Runtime() *gptpu.Context { return s.gx }

// Flight returns the daemon's flight recorder (nil when tracing is
// disabled), for the /debug/flight handler and exit-time dumps.
func (s *Server) Flight() *obs.Recorder { return s.rec }

// Serve accepts connections until Shutdown closes the listener. A
// graceful shutdown returns nil.
func (s *Server) Serve() error { return s.door.Serve() }

// Shutdown drains the daemon: the front door stops accepting, fails
// new requests with ErrShuttingDown, waits for in-flight requests
// (including pending micro-batches) to reply and closes connections;
// then the shared runtime quiesces and retires (Sync + Close — safe
// even against stragglers, since Close is concurrent-safe).
// Idempotent.
func (s *Server) Shutdown() error {
	if !s.door.Drain() {
		return nil
	}
	err := s.gx.Sync()
	s.gx.Close()
	return err
}

// Abort is the chaos hard-kill (FrontDoor.Abort): failover tests use
// it to prove the router re-homes the orphaned requests; the runtime
// keeps running so a later Shutdown can still retire it cleanly.
func (s *Server) Abort() { s.door.Abort() }

// health snapshots the daemon's probe-visible identity and capacity.
func (s *Server) health() HealthInfo {
	return HealthInfo{ShardID: s.cfg.ShardID, Devices: s.gx.Config().Devices}
}

// handleRequest serves one operator request for the front door:
// decode, validate, admit (or shed), honor the deadline, execute
// directly or through the micro-batcher, encode the result.
func (s *Server) handleRequest(f *Frame, rt *obs.Trace, arrived time.Time) Reply {
	// The operands decode into pooled matrices that never alias the
	// frame, so the frame's last reader is the decoder. The request owns
	// the matrices until this handler returns — by then the batch it
	// rode has stacked A, or its own task has completed — except for a B
	// the batcher took over.
	dst := time.Now()
	req, err := decodeOpRequestTo(f.Type, f.Payload, tensor.GetForOverwrite[float32])
	f.Release()
	if err == nil {
		defer req.release()
		err = validateShapes(req)
	}
	rt.ObserveSpan(obs.StageDecode, dst, time.Since(dst), "")
	if err != nil {
		return Reply{Err: err}
	}
	ast := time.Now()
	if err := s.adm.tryAcquire(); err != nil {
		rt.ObserveSpan(obs.StageAdmission, ast, time.Since(ast), "shed")
		return Reply{Err: err}
	}
	rt.ObserveSpan(obs.StageAdmission, ast, time.Since(ast), "")
	rep := encodeReply(s.serveAdmitted(req, rt, arrived), rt)
	rep.Held = true
	return rep
}

// serveAdmitted runs an admitted request: the micro-batcher takes
// small GEMMs that did not opt out, everything else runs as its own
// task.
func (s *Server) serveAdmitted(req *OpRequest, rt *obs.Trace, arrived time.Time) callResult {
	if expired(arrived, req.DeadlineMillis, time.Now()) {
		return callResult{err: ErrDeadlineExceeded}
	}
	if req.Op == MsgGemm && req.Flags&FlagNoBatch == 0 &&
		req.A.Elems() <= batchMaxElems && req.B.Elems() <= batchMaxElems {
		key := batchKey{n: req.A.Cols, k: req.B.Cols, bhash: WeightKey(req.B)}
		call := &gemmCall{a: req.A, arrived: arrived, deadlineMillis: req.DeadlineMillis,
			rt: rt, done: make(chan callResult, 1)}
		rt.Begin(obs.StageBatchWait, "")
		if s.bat.submit(key, req.B, call) {
			// submit took B over: the group keeps it or has already
			// released it.
			req.B = nil
			res := <-call.done
			rt.End(obs.StageBatchWait)
			return res
		}
		// The weight matrix hash-collided with a pending batch group's:
		// fall through to the unbatched path rather than batch against
		// the wrong weights.
		rt.End(obs.StageBatchWait)
	}
	m, err := s.execute(req, rt)
	return callResult{m: m, err: err}
}

// encodeReply renders a result as the reply payload: the matrix is
// encoded into a pooled buffer and goes back to the float32 pool (the
// daemon owns it and nothing else reads it). A result that cannot fit
// one frame (validateShapes should prevent this) degrades to a typed
// error reply — the request ID is always answered, so the client never
// blocks on a silently-dropped encode.
func encodeReply(res callResult, rt *obs.Trace) Reply {
	m := res.m
	defer tensor.Put(m)
	if res.err != nil {
		return Reply{Err: res.err}
	}
	if m.Elems() > MaxResultElems {
		return Reply{Err: fmt.Errorf("%w: result %dx%d exceeds reply frame cap", ErrInternal, m.Rows, m.Cols)}
	}
	est := time.Now()
	wb := encodeMatrix(m)
	rt.ObserveSpan(obs.StageReplyEncode, est, time.Since(est), "")
	return Reply{Type: MsgResult, Payload: wb.Data, buf: wb}
}

// ErrStatus names a typed error's failure class for status-labeled
// telemetry ("ok" is the caller's convention for nil). The cluster
// router labels its reply counters with it so router and daemon
// status breakdowns use one vocabulary.
func ErrStatus(err error) string { return classOf(err).status }

// validateShapes rejects dimension mismatches up front with a typed
// bad-request error (the runtime's own checks panic, which Enqueue
// converts to an opaque internal error — this gives the client a
// usable message instead). It also bounds the *result* size: input
// frames are capped on the wire, but a GEMM's output is Rows x Cols of
// different matrices, so small operands can name a result large enough
// to exhaust daemon memory or overflow the reply frame.
func validateShapes(req *OpRequest) error {
	// The wire accepts arbitrary float32 bit patterns; NaN/Inf inputs
	// would defeat the symmetric quantization (one +Inf used to drive
	// the scale to 0 and poison the whole result with NaN), so they
	// are rejected here as malformed rather than deep in the runtime.
	// The decoder tested every value's bits as it converted them.
	if req.nonFinite {
		return fmt.Errorf("%w: matrix contains non-finite values (NaN or Inf)", ErrBadRequest)
	}
	switch req.Op {
	case MsgGemm:
		if req.A.Cols != req.B.Rows {
			return fmt.Errorf("%w: GEMM inner dimensions %d vs %d", ErrBadRequest, req.A.Cols, req.B.Rows)
		}
		if res := uint64(req.A.Rows) * uint64(req.B.Cols); res > MaxResultElems {
			return fmt.Errorf("%w: GEMM result %dx%d (%d elements) exceeds result cap %d",
				ErrBadRequest, req.A.Rows, req.B.Cols, res, uint64(MaxResultElems))
		}
	case MsgAdd, MsgSub, MsgMul:
		if req.A.Rows != req.B.Rows || req.A.Cols != req.B.Cols {
			return fmt.Errorf("%w: elementwise shapes %dx%d vs %dx%d",
				ErrBadRequest, req.A.Rows, req.A.Cols, req.B.Rows, req.B.Cols)
		}
	case MsgConv2D:
		if req.B.Rows > req.A.Rows || req.B.Cols > req.A.Cols {
			return fmt.Errorf("%w: conv2D kernel %dx%d larger than input %dx%d",
				ErrBadRequest, req.B.Rows, req.B.Cols, req.A.Rows, req.A.Cols)
		}
	}
	return nil
}

// execute runs one unbatched request as its own OPQ task on the
// shared context, threading the request's trace into the engine so
// queue-wait/charge/exec spans and fault retries land on it. Enqueue's
// recover converts runtime panics into task errors, so a bad request
// can never take the daemon down.
func (s *Server) execute(req *OpRequest, rt *obs.Trace) (*tensor.Matrix, error) {
	var (
		a   = s.gx.CreateMatrixBuffer(req.A)
		out *tensor.Matrix
	)
	var b *gptpu.Buffer
	if req.B != nil {
		b = s.gx.CreateMatrixBuffer(req.B)
	}
	// A typed-nil *obs.Trace must become a nil interface, or the
	// engine would call methods on it believing an observer exists.
	var to gptpu.TaskObserver
	if rt != nil {
		to = rt
	}
	rst := time.Now()
	task := s.gx.EnqueueObserved(to, func(op *gptpu.Op) {
		switch req.Op {
		case MsgGemm:
			out = op.Gemm(a, b)
		case MsgAdd:
			out = op.Add(a, b)
		case MsgSub:
			out = op.Sub(a, b)
		case MsgMul:
			out = op.Mul(a, b)
		case MsgConv2D:
			out = op.Conv2D(a, b)
		case MsgMean:
			out = tensor.FromSlice(1, 1, []float32{op.Mean(a)})
		case MsgMax:
			out = tensor.FromSlice(1, 1, []float32{op.Max(a)})
		}
	})
	err := task.Wait()
	rt.ObserveSpan(obs.StageRuntime, rst, time.Since(rst), "")
	if err != nil {
		return nil, mapRuntimeErr(err)
	}
	if out == nil {
		return nil, fmt.Errorf("%w: operator returned no result", ErrInternal)
	}
	return out, nil
}

// mapRuntimeErr classifies a runtime task error into the wire's typed
// failure classes: bad operand data is the client's fault, fault-path
// failures are retryable, everything else is internal.
func mapRuntimeErr(err error) error {
	switch {
	case errors.Is(err, gptpu.ErrBadInput):
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	case errors.Is(err, gptpu.ErrRetryBudget), errors.Is(err, gptpu.ErrTransient):
		return fmt.Errorf("%w: %v", ErrTransient, err)
	}
	return fmt.Errorf("%w: %v", ErrInternal, err)
}
