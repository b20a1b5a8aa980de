package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase is what one measured phase of a workload produced. Every op
// attempted is counted in sent, and ends in exactly one of ok or a
// failure class.
type phase struct {
	latMS   []float64 // one per successful op (open loop: from the due instant)
	lagMS   []float64 // open loop: how late each request was sent
	sent    int
	ok      int
	fails   map[string]int // failure class -> count
	backlog int            // open loop: requests still outstanding when the window closed

	windows []window // consecutive slices of the phase, when metered
}

// window is one slice of a metered phase. Rates and per-op costs are
// reported as the median over a phase's windows, so a neighbour's burst
// or one long collection moves one window, not the result.
type window struct {
	seconds float64
	sent    int     // ops attempted in the window
	ok      int     // ops completed successfully in the window
	cpuMS   float64 // process user+sys CPU
	allocKB float64 // runtime.MemStats.TotalAlloc delta
}

// windowsPerPhase is how many windows a metered phase is cut into.
const windowsPerPhase = 10

// meter cuts a phase into windows. The loop driving the phase calls
// tick after every op or arrival with its running counts; tick closes a
// window whenever its share of the phase has passed.
type meter struct {
	every time.Duration
	last  reading
	out   []window
}

type reading struct {
	at       time.Time
	sent, ok int
	cpu      time.Duration
	alloc    uint64
}

func read(sent, ok int) reading {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return reading{at: time.Now(), sent: sent, ok: ok, cpu: cpuNow(), alloc: m.TotalAlloc}
}

// newMeter starts metering a phase of length d. A collection first, so
// garbage of the set-up is not collected on the phase's CPU time. A nil
// *meter meters nothing.
func newMeter(d time.Duration) *meter {
	runtime.GC()
	return &meter{every: d / windowsPerPhase, last: read(0, 0)}
}

func (m *meter) tick(sent, ok int) {
	if m == nil || time.Since(m.last.at) < m.every {
		return
	}
	m.close(sent, ok)
}

// finish ends the phase: the remainder becomes a window of its own
// only if it is at least half a window long.
func (m *meter) finish(sent, ok int) []window {
	if m == nil {
		return nil
	}
	if time.Since(m.last.at) >= m.every/2 {
		m.close(sent, ok)
	}
	return m.out
}

// close ends the current window at the given running counts.
func (m *meter) close(sent, ok int) {
	if sent == m.last.sent {
		return
	}
	r := read(sent, ok)
	m.out = append(m.out, window{
		seconds: r.at.Sub(m.last.at).Seconds(),
		sent:    r.sent - m.last.sent,
		ok:      r.ok - m.last.ok,
		cpuMS:   float64(r.cpu-m.last.cpu) / 1e6,
		allocKB: float64(r.alloc-m.last.alloc) / 1024,
	})
	m.last = r
}

// over returns the median over the phase's windows of f.
func (p *phase) over(f func(w window) float64) float64 {
	v := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		v = append(v, f(w))
	}
	return median(v)
}

func (p *phase) failed() int {
	n := 0
	for _, c := range p.fails {
		n += c
	}
	return n
}

func (p *phase) fail(class string) {
	if p.fails == nil {
		p.fails = make(map[string]int)
	}
	p.fails[class]++
}

// cpuNow is the process's user+sys CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// closedLoop is one caller that issues its next op when the previous
// one returned, for d. op reports how long the call itself took (the
// output check it also makes is not part of the latency) and a failure
// class, empty on success.
func closedLoop(d time.Duration, m *meter, op func(i int) (time.Duration, string)) *phase {
	p := &phase{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		lat, class := op(i)
		p.sent++
		if class != "" {
			p.fail(class)
		} else {
			p.ok++
			p.latMS = append(p.latMS, float64(lat)/1e6)
		}
		m.tick(p.sent, p.ok)
	}
	p.windows = m.finish(p.sent, p.ok)
	return p
}

// maxOutstanding caps the open-loop generator's in-flight requests; an
// arrival beyond it is not sent and counts as failed, so a stalled
// system cannot make the generator hold unbounded memory.
const maxOutstanding = 2048

// drainTimeout is how long the open loop waits for outstanding replies
// after the window closes before it aborts the connections.
const drainTimeout = 10 * time.Second

// arrivals returns the due offsets of a seeded Poisson process of the
// given rate over d, conditioned on its count: exactly rate x d
// arrivals, placed as sorted uniform draws. The instants change with
// the seed; the amount of work offered does not, so seeds differ in
// burstiness, not in load.
func arrivals(d time.Duration, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, int(rate*d.Seconds()))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends requests on the seeded schedule of arrivals at rate
// per second for d, regardless of how fast replies come back. send
// blocks for request i, which was due at due, and returns the instant
// its reply arrived and a failure class, empty on success. Latency runs
// from the due instant, so the wait a stall imposes on later requests
// is counted; lagMS records how late the generator itself ran. abort
// must make every outstanding send return (it closes the connections).
func openLoop(d time.Duration, rate float64, seed int64, m *meter,
	send func(i int, due time.Time) (time.Time, string), abort func()) *phase {
	p := &phase{}
	var mu sync.Mutex // guards p while request goroutines report
	var wg sync.WaitGroup
	var outstanding, ok atomic.Int64

	start := time.Now()
	for i, next := range arrivals(d, rate, seed) {
		for now := time.Since(start); now < next; now = time.Since(start) {
			time.Sleep(next - now)
		}
		p.sent++
		if outstanding.Load() >= maxOutstanding {
			mu.Lock()
			p.fail(failDrop)
			mu.Unlock()
		} else {
			outstanding.Add(1)
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				lag := time.Since(due)
				replied, class := send(i, due)
				outstanding.Add(-1)
				mu.Lock()
				defer mu.Unlock()
				p.lagMS = append(p.lagMS, float64(lag)/1e6)
				if class != "" {
					p.fail(class)
					return
				}
				ok.Add(1)
				p.latMS = append(p.latMS, float64(replied.Sub(due))/1e6)
			}(i, start.Add(next))
		}
		m.tick(p.sent, int(ok.Load()))
	}
	if rest := d - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	p.backlog = int(outstanding.Load())
	p.windows = m.finish(p.sent, int(ok.Load()))

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		abort()
		<-done
	}
	p.ok = int(ok.Load())
	return p
}
