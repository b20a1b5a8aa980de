package timing

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/isa"
)

func TestResourceSerializes(t *testing.T) {
	tl := NewTimeline()
	r := tl.NewResource("tpu0")
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire [%v,%v)", s1, e1)
	}
	// Ready at 5 but resource busy until 10: must queue.
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("queued acquire [%v,%v)", s2, e2)
	}
	// Ready after the resource frees: starts at ready time.
	s3, e3 := r.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("idle acquire [%v,%v)", s3, e3)
	}
	if r.BusyTime() != 25 {
		t.Fatalf("busy=%v want 25", r.BusyTime())
	}
	if r.Ops() != 3 {
		t.Fatalf("ops=%d", r.Ops())
	}
}

func TestResourceNegativePanics(t *testing.T) {
	r := &Resource{Name: "x"}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Acquire(0, -1)
}

func TestTimelineMakespan(t *testing.T) {
	tl := NewTimeline()
	a := tl.NewResource("a")
	b := tl.NewResource("b")
	a.Acquire(0, 30)
	b.Acquire(0, 10)
	tl.Observe(50) // e.g. a dependent completion on no tracked resource
	if tl.Makespan() != 50 {
		t.Fatalf("makespan=%v", tl.Makespan())
	}
	tl.Reset()
	if tl.Makespan() != 0 || a.BusyTime() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestParallelResourcesOverlap(t *testing.T) {
	tl := NewTimeline()
	tpus := []*Resource{tl.NewResource("t0"), tl.NewResource("t1")}
	// Two independent 10-unit jobs on two devices overlap fully.
	for _, r := range tpus {
		_, end := r.Acquire(0, 10)
		tl.Observe(end)
	}
	if tl.Makespan() != 10 {
		t.Fatalf("parallel makespan=%v want 10", tl.Makespan())
	}
}

func TestResourceConcurrentSafety(t *testing.T) {
	r := &Resource{Name: "shared"}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Acquire(0, 1)
			}
		}()
	}
	wg.Wait()
	if r.BusyTime() != 3200 {
		t.Fatalf("busy=%v want 3200", r.BusyTime())
	}
	if r.AvailableAt() != 3200 {
		t.Fatalf("availableAt=%v", r.AvailableAt())
	}
}

// Property: acquisitions on one resource never overlap (pairwise
// disjoint intervals), never start before their ready time, and have
// exactly the requested length. Gap-filling means later acquisitions
// may start before earlier-issued ones, which is intended.
func TestQuickResourceNoOverlap(t *testing.T) {
	type span struct{ s, e Duration }
	f := func(readies []uint16, durs []uint8) bool {
		r := &Resource{Name: "q"}
		var spans []span
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			ready := Duration(readies[i])
			d := Duration(durs[i])
			s, e := r.Acquire(ready, d)
			if s < ready || e != s+d {
				return false
			}
			if d > 0 {
				spans = append(spans, span{s, e})
			}
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].s < spans[j].e && spans[j].s < spans[i].e {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: gap-filling never loses busy time.
func TestQuickResourceBusyAccounting(t *testing.T) {
	f := func(readies []uint16, durs []uint8) bool {
		r := &Resource{Name: "q"}
		var total Duration
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			r.Acquire(Duration(readies[i]), Duration(durs[i]))
			total += Duration(durs[i])
		}
		return r.BusyTime() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultParamsReproduceTable1(t *testing.T) {
	p := Default()
	// For every op the canonical instruction must execute at the
	// published OPS (within float tolerance), by construction of
	// Derive.
	for _, op := range isa.AllOps() {
		oc := p.Op[op]
		if oc.PaperOPS == 0 {
			t.Fatalf("%v missing from cost table", op)
		}
		total := Seconds(oc.Overhead) + float64(oc.CanonicalMACs)/oc.MACRate
		gotOPS := 1 / total
		if math.Abs(gotOPS-oc.PaperOPS)/oc.PaperOPS > 0.02 {
			t.Errorf("%v: modelled OPS %.2f vs paper %.2f", op, gotOPS, oc.PaperOPS)
		}
		gotRPS := gotOPS * float64(oc.CanonicalResults)
		if math.Abs(gotRPS-oc.PaperRPS)/oc.PaperRPS > 0.02 {
			t.Errorf("%v: modelled RPS %.2f vs paper %.2f", op, gotRPS, oc.PaperRPS)
		}
	}
}

func TestTransferTimeMatchesPaper(t *testing.T) {
	p := Default()
	// Section 3.2: 1 MB ~ 6 ms, 8 MB ~ 48 ms.
	if got := p.TransferTime(1 << 20); got != 6*time.Millisecond {
		t.Fatalf("1MB transfer = %v", got)
	}
	if got := p.TransferTime(8 << 20); got != 48*time.Millisecond {
		t.Fatalf("8MB transfer = %v", got)
	}
}

func TestModelCreationSpeedup(t *testing.T) {
	p := Default()
	elems := int64(2048 * 2048)
	ref := p.RefCompileTime(elems)
	fast := p.TensorizerEncodeTime(elems)
	speedup := Seconds(ref) / Seconds(fast)
	// Paper section 6.2.3: "a 1500x speedup".
	if speedup < 1400 || speedup > 1600 {
		t.Fatalf("compile-path speedup %.0f, want ~1500", speedup)
	}
}

func TestInstrTimeMonotonicInWork(t *testing.T) {
	p := Default()
	small := &isa.Instruction{Op: isa.Conv2D, InRows: 128, InCols: 128, KRows: 3, KCols: 3, Channels: 1}
	large := &isa.Instruction{Op: isa.Conv2D, InRows: 1024, InCols: 1024, KRows: 3, KCols: 3, Channels: 1}
	if p.InstrTime(large) <= p.InstrTime(small) {
		t.Fatal("larger instruction must take longer")
	}
}

func TestCPUTimeHelpers(t *testing.T) {
	p := Default()
	if p.CPUGemmTime(1024, 1024, 1024) <= 0 {
		t.Fatal("gemm time must be positive")
	}
	if p.CPUScalarTime(0) != 0 || p.QuantTime(0) != 0 || p.AggTime(0) != 0 {
		t.Fatal("zero work must cost zero time")
	}
	if p.CPUInt8GemmTime(1024, 1024, 1024) >= p.CPUGemmTime(1024, 1024, 1024) {
		t.Fatal("int8 GEMM should be faster than float32 GEMM on CPU")
	}
}

func TestISAGeometry(t *testing.T) {
	fc := &isa.Instruction{Op: isa.FullyConnected, InRows: 128, InCols: 256}
	if fc.Results() != 128 {
		t.Fatalf("FC results=%d want 128 (one per weight row)", fc.Results())
	}
	if fc.MACs() != 128*256 {
		t.Fatalf("FC MACs=%d", fc.MACs())
	}
	conv := &isa.Instruction{Op: isa.Conv2D, InRows: 64, InCols: 64, KRows: 8, KCols: 8, StrideR: 8, StrideC: 8, Channels: 4}
	if conv.OutRows() != 8 || conv.OutCols() != 8*4 {
		t.Fatalf("conv out %dx%d", conv.OutRows(), conv.OutCols())
	}
	if conv.MACs() != int64(8*8*4)*64 {
		t.Fatalf("conv MACs=%d", conv.MACs())
	}
	mean := &isa.Instruction{Op: isa.Mean, InRows: 64, InCols: 64}
	if mean.Results() != 1 {
		t.Fatal("matrix-wise op must produce one result")
	}
	add := &isa.Instruction{Op: isa.Add, InRows: 128, InCols: 128}
	if add.Results() != 128*128 {
		t.Fatal("pairwise op result shape mismatch")
	}
}

func TestISAOpPredicates(t *testing.T) {
	if !isa.Add.Pairwise() || !isa.Sub.Pairwise() || !isa.Mul.Pairwise() {
		t.Fatal("pairwise predicates")
	}
	if !isa.Tanh.Elementwise() || !isa.ReLU.Elementwise() {
		t.Fatal("elementwise predicates")
	}
	if !isa.Mean.MatrixWise() || !isa.Max.MatrixWise() {
		t.Fatal("matrixwise predicates")
	}
	if !isa.Conv2D.Arithmetic() || !isa.FullyConnected.Arithmetic() {
		t.Fatal("arithmetic predicates")
	}
	if isa.TileFor(isa.Mean) != isa.ReduceTile || isa.TileFor(isa.Add) != isa.ArithTile {
		t.Fatal("tile shapes")
	}
	if isa.Conv2D.String() != "conv2D" || isa.ReLU.String() != "ReLu" {
		t.Fatal("op names must match the paper")
	}
	if isa.OpCode(-1).Valid() || !isa.Mul.Valid() {
		t.Fatal("validity predicate")
	}
	if len(isa.AllOps()) != isa.NumOps {
		t.Fatal("AllOps length")
	}
}

func TestHistoryFreezeKeepsAcquireCheap(t *testing.T) {
	// Heavily fragmented schedules must stay bounded: interleave
	// acquisitions that leave gaps and verify the makespan stays exact
	// while the interval list stays small (indirectly: 100k ops finish
	// quickly and BusyTime is exact).
	r := &Resource{Name: "frag"}
	var total Duration
	for i := 0; i < 100000; i++ {
		// Alternate between early-ready and late-ready work to create
		// gaps the freezer must eventually swallow.
		ready := Duration(i * 10)
		if i%3 == 0 {
			ready = Duration(i * 17)
		}
		r.Acquire(ready, 3)
		total += 3
	}
	if r.BusyTime() != total {
		t.Fatalf("busy %v want %v", r.BusyTime(), total)
	}
	if r.Ops() != 100000 {
		t.Fatalf("ops %d", r.Ops())
	}
}

func TestFreezeIsPessimisticNotLossy(t *testing.T) {
	// After history freezing, new work can still only be delayed, never
	// scheduled before its ready time or overlapping the frozen prefix.
	r := &Resource{Name: "freeze"}
	for i := 0; i < maxIntervals+50; i++ {
		// Non-coalescing intervals: ready times with gaps of 1.
		r.Acquire(Duration(i*3), 2)
	}
	horizon := r.AvailableAt()
	s, e := r.Acquire(0, 5)
	if s < 0 || e != s+5 {
		t.Fatalf("bad placement [%v,%v)", s, e)
	}
	if s > horizon {
		t.Fatalf("early-ready work pushed past the horizon: %v > %v", s, horizon)
	}
}

func TestTraceRecordsAcquisitions(t *testing.T) {
	tl := NewTimeline()
	tl.EnableTrace()
	r := tl.NewResource("traced")
	r.Acquire(0, 7)
	r.Acquire(0, 0) // zero-length work is not traced
	r.Acquire(10, 3)
	ev := tl.Trace()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Resource != "traced" || ev[0].End-ev[0].Start != 7 {
		t.Fatalf("event 0: %+v", ev[0])
	}
	// Untraced timeline returns nil.
	if NewTimeline().Trace() != nil {
		t.Fatal("untraced timeline must return nil")
	}
}

func TestEnableTraceIdempotent(t *testing.T) {
	tl := NewTimeline()
	tl.EnableTrace()
	r := tl.NewResource("x")
	r.Acquire(0, 1)
	tl.EnableTrace() // second call must not reset the buffer
	r.Acquire(1, 1)
	if len(tl.Trace()) != 2 {
		t.Fatal("EnableTrace must be idempotent")
	}
}
