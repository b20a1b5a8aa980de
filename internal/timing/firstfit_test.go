package timing

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// linearResource is the first-fit schedule as a plain linear walk from
// ready through every later gap, with Resource's coalescing and
// history freeze: the oracle the gap index must reproduce exactly.
type linearResource struct{ intervals []ival }

func (r *linearResource) acquire(ready, d Duration) (start, end Duration) {
	if d == 0 {
		return ready, ready
	}
	i := sort.Search(len(r.intervals), func(i int) bool { return r.intervals[i].end > ready })
	start = ready
	for ; i < len(r.intervals); i++ {
		iv := r.intervals[i]
		if start+d <= iv.start {
			break
		}
		if iv.end > start {
			start = iv.end
		}
	}
	end = start + d
	lo, hi := i, i
	ns, ne := start, end
	if lo > 0 && r.intervals[lo-1].end == ns {
		lo--
		ns = r.intervals[lo].start
	}
	if hi < len(r.intervals) && r.intervals[hi].start == ne {
		ne = r.intervals[hi].end
		hi++
	}
	merged := ival{ns, ne}
	switch {
	case lo == len(r.intervals):
		r.intervals = append(r.intervals, merged)
	case hi == lo:
		r.intervals = append(r.intervals, ival{})
		copy(r.intervals[lo+1:], r.intervals[lo:])
		r.intervals[lo] = merged
	default:
		r.intervals[lo] = merged
		r.intervals = append(r.intervals[:lo+1], r.intervals[hi:]...)
	}
	if len(r.intervals) > maxIntervals {
		cut := len(r.intervals) - keepIntervals
		r.intervals[cut-1] = ival{r.intervals[0].start, r.intervals[cut-1].end}
		n := copy(r.intervals[0:], r.intervals[cut-1:])
		r.intervals = r.intervals[:n]
	}
	return start, end
}

// checkFirstFit replays (ready, d) pairs on a Resource and on the
// linear walk and fails at the first placement or interval list that
// differs, or at a block bound below one of its gaps.
func checkFirstFit(t *testing.T, ops [][2]Duration) {
	t.Helper()
	r := &Resource{Name: "r"}
	var ref linearResource
	for n, op := range ops {
		s, e := r.Acquire(op[0], op[1])
		ws, we := ref.acquire(op[0], op[1])
		if s != ws || e != we {
			t.Fatalf("op %d: Acquire(%d, %d) = [%d, %d), linear walk [%d, %d)", n, op[0], op[1], s, e, ws, we)
		}
		if !slices.Equal(r.intervals, ref.intervals) {
			t.Fatalf("op %d: interval lists differ:\n got %v\nwant %v", n, r.intervals, ref.intervals)
		}
		iv := r.intervals
		for j := 1; j < len(iv); j++ {
			if g := iv[j].start - iv[j-1].end; g > r.gapMax[j/gapBlock] {
				t.Fatalf("op %d: gap %d before interval %d exceeds its block's bound %d", n, g, j, r.gapMax[j/gapBlock])
			}
		}
	}
}

// TestFirstFitMatchesLinearWalk drives the gap index through random
// schedules long enough to freeze several times. Each seed loads the
// resource to a different share of its time, with readies up to a
// window behind a clock that moves forward, and durations on a coarse
// grid, so work lands in old gaps far back, skips whole blocks,
// appends, and coalesces on either side or both.
func TestFirstFitMatchesLinearWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := 8 + rng.Int63n(400)
		long := 1 + rng.Int63n(60)
		load := 0.3 + 0.1*float64(seed%7)
		step := int64(2*(1.3+float64(long)/16)/load) + 1
		ops := make([][2]Duration, 3000)
		var now Duration
		for i := range ops {
			now += Duration(rng.Int63n(step))
			d := Duration(rng.Intn(4))
			if rng.Intn(8) == 0 {
				d = Duration(rng.Int63n(long))
			}
			ops[i] = [2]Duration{max(0, now-Duration(rng.Int63n(window))), d}
		}
		checkFirstFit(t, ops)
	}
}

// FuzzFirstFit reads (ready, d) pairs from the input, two bytes each:
// a duration of 0-3, how far ready lies behind the clock (up to 2047)
// and how far the clock then moves on (0-7).
func FuzzFirstFit(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 5, 2, 1, 3, 0, 9, 2, 1})
	f.Add(bytes.Repeat([]byte{0x53, 0x21, 0x0a, 0x62, 0x37, 0xe1, 0x91, 0x44}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops [][2]Duration
		var now Duration
		for len(data) >= 2 {
			v := binary.LittleEndian.Uint16(data)
			data = data[2:]
			ops = append(ops, [2]Duration{max(0, now-Duration(v>>2&0x7ff)), Duration(v & 3)})
			now += Duration(v >> 13)
		}
		checkFirstFit(t, ops)
	})
}

// BenchmarkAcquireSpanFragmented times first fit in the pattern of the
// sensitivity experiment's busy PCIe links: 32 resources in turn, each
// holding between 129 and 256 intervals separated by short gaps, and
// per op one short transfer ready now, which appends, and one long
// transfer ready about 100 intervals back, which fits none of those
// gaps and lands at the end of the schedule. Together the schedules
// outgrow the L1 cache, as a sweep's many links do.
func BenchmarkAcquireSpanFragmented(b *testing.B) {
	rs := make([]*Resource, 32)
	for i := range rs {
		rs[i] = &Resource{Name: "link"}
	}
	var now Duration
	step := func() {
		now += 12
		for _, r := range rs {
			r.Acquire(now, 1)
			r.Acquire(max(0, now-1200), 8)
		}
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)*2), "ns/acquire")
}
