package cluster

import (
	"sort"
	"sync"
)

// Placement: rendezvous (highest-random-weight) hashing plus a
// weight-affinity table.
//
// Rendezvous hashing scores every (key, member) pair independently —
// score = mix64(key ^ member.hash) — and ranks members per key by
// descending score. Two properties make it the right shape for weight
// placement:
//
//   - Minimal disruption: when a member leaves the ring, only the keys
//     it ranked first for move (each to its own second choice); every
//     other key's top choice is unchanged. A consistent full remap
//     (mod-N) would instead cold-start nearly every weight cache on
//     every membership change.
//
//   - Built-in replica order: a key's rank list IS its failover order,
//     deterministic at every router for the same ring. No separate
//     replica-assignment state to keep consistent.
//
// The affinity table overlays stickiness the pure hash cannot express:
// once a key is served by a member, the member holds the key until it
// leaves the ring — even after previously-failed members re-admit.
// Ring membership answers "who could serve this"; affinity answers
// "who has served it, and therefore holds its quantized weight buffer
// warm".

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose
// avalanche quality keeps per-key member scores independent, so keys
// spread evenly even though member hashes are fixed.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hrwScore scores one member for one key.
func hrwScore(key, memberHash uint64) uint64 {
	return mix64(key ^ memberHash)
}

// rankMembers orders members by descending rendezvous score for key
// (ties, vanishingly rare, break by address so every router agrees).
// Index 0 is the key's home; the rest are its failover order.
func rankMembers(key uint64, ms []*member) []*member {
	ranked := make([]*member, len(ms))
	copy(ranked, ms)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := hrwScore(key, ranked[i].hash), hrwScore(key, ranked[j].hash)
		if si != sj {
			return si > sj
		}
		return ranked[i].addr < ranked[j].addr
	})
	return ranked
}

// affinity is the weight-residency table: placement key → the member
// address that last served it. Bounded FIFO so a key-churning workload
// cannot grow router memory without bound; an evicted key simply falls
// back to pure rendezvous placement (correct, just cold).
type affinity struct {
	capacity int
	mu       sync.Mutex
	m        map[uint64]string
	order    []uint64 // FIFO eviction order (insertion order)
}

func newAffinity(capacity int) *affinity {
	if capacity <= 0 {
		capacity = 4096
	}
	return &affinity{capacity: capacity, m: make(map[uint64]string, capacity)}
}

// lookup returns the member address holding key, if any.
func (a *affinity) lookup(key uint64) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	addr, ok := a.m[key]
	return addr, ok
}

// bind records that addr served key, evicting the oldest key when the
// table is full. It reports whether the key moved from a different
// member (a rebind — the failover cost signal).
func (a *affinity) bind(key uint64, addr string) (rebound bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.m[key]; ok {
		a.m[key] = addr
		return prev != addr
	}
	if len(a.order) >= a.capacity {
		delete(a.m, a.order[0])
		a.order = a.order[1:]
	}
	a.m[key] = addr
	a.order = append(a.order, key)
	return false
}

// size returns the live entry count.
func (a *affinity) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}
