package cluster

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/server"
)

// memberState is one backend daemon's position in the router's health
// state machine:
//
//	healthy ──(probe/forward failure)──▶ suspect ──(strikes)──▶ dead
//	   ▲  ╲─(health reply: draining)──▶ draining                 │
//	   └────────────(successful probe: re-admission)─────────────┘
//
// Only healthy members are in the rendezvous ring. Draining members
// are out of the ring but not dead: they are finishing accepted work
// and will re-admit if they come back (a rolling restart). Suspect
// members failed once — one strike is not ejection, because a single
// timed-out probe under load must not dump a member's whole key range
// onto its neighbors. Dead members took deadStrikes consecutive
// failures; they rejoin the moment a probe succeeds, and the affinity
// table (not the ring) decides whether traffic moves back.
type memberState int

const (
	stateHealthy memberState = iota
	stateSuspect
	stateDraining
	stateDead
)

// memberStates enumerates the states for the per-state membership
// gauges, in a fixed order so the exporter output is stable.
var memberStates = [...]memberState{stateHealthy, stateSuspect, stateDraining, stateDead}

func (s memberState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	case stateDraining:
		return "draining"
	case stateDead:
		return "dead"
	}
	return "unknown"
}

// member is one backend daemon from the router's point of view: its
// address, its precomputed rendezvous hash, its health state, and a
// lazily-dialed multiplexing client shared by every request the router
// sends it.
type member struct {
	addr string
	// hash is the member's fixed rendezvous identity, mixed with each
	// placement key to score the member for that key.
	hash uint64

	mu      sync.Mutex
	state   memberState
	strikes int
	health  server.HealthInfo
	cli     *server.Client
}

// addrHash fingerprints a member address for rendezvous scoring.
func addrHash(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64()
}

// conn returns the member's client, dialing on first use (and after a
// dropConn). The client multiplexes, so every router goroutine shares
// this one connection per member. It carries no retry policy: the
// router reaches a member only through Forward and Health, which never
// retry (only Client.Call does); a shed or transient answer fails over
// to the next candidate instead.
func (m *member) conn() (*server.Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cli != nil {
		return m.cli, nil
	}
	c, err := server.Dial(m.addr)
	if err != nil {
		return nil, err
	}
	m.cli = c
	return c, nil
}

// dropConn retires a dead client so the next use redials. The caller
// passes the client it observed failing — if another goroutine already
// redialed, the fresh connection is left alone.
func (m *member) dropConn(c *server.Client) {
	m.mu.Lock()
	if m.cli == c {
		m.cli = nil
	}
	m.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// strike records one failure (failed probe, lost connection): the
// member turns suspect, and dead once deadStrikes consecutive failures
// accumulate. Returns the resulting state.
func (m *member) strike(deadStrikes int) memberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.strikes++
	if m.strikes >= deadStrikes {
		m.state = stateDead
	} else {
		m.state = stateSuspect
	}
	return m.state
}

// markDraining records a daemon-reported graceful shutdown, from a
// probe's health reply or a forward's shutting-down answer: out of the
// ring without strikes, but its in-flight work will complete. h is the
// member's health as last reported.
func (m *member) markDraining(h server.HealthInfo) {
	m.mu.Lock()
	m.state = stateDraining
	m.health = h
	m.mu.Unlock()
}

// readmit records a successful health probe: strikes reset and the
// member rejoins the ring, whatever it was before. Re-admission does
// not touch the affinity table — keys that failed over while the
// member was out stay where their weights are now warm, and only
// HRW-fresh keys land on the returnee.
func (m *member) readmit(h server.HealthInfo) {
	m.mu.Lock()
	m.state = stateHealthy
	m.strikes = 0
	m.health = h
	m.mu.Unlock()
}

// snapshot reads the member's state under its lock.
func (m *member) snapshot() (memberState, int, server.HealthInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, m.strikes, m.health
}

// memberSet is the fixed membership roster. Members are configured at
// construction; health state varies, the set does not (an operator
// restart reconfigures — this is a static-membership router, not a
// gossip mesh).
type memberSet struct {
	members []*member
	byAddr  map[string]*member
}

func newMemberSet(addrs []string) *memberSet {
	s := &memberSet{byAddr: make(map[string]*member, len(addrs))}
	for _, a := range addrs {
		if _, dup := s.byAddr[a]; dup {
			continue
		}
		m := &member{addr: a, hash: addrHash(a)}
		s.members = append(s.members, m)
		s.byAddr[a] = m
	}
	// Deterministic iteration order regardless of configuration order.
	sort.Slice(s.members, func(i, j int) bool { return s.members[i].addr < s.members[j].addr })
	return s
}

// eligible returns the members currently in the rendezvous ring.
func (s *memberSet) eligible() []*member {
	out := make([]*member, 0, len(s.members))
	for _, m := range s.members {
		if st, _, _ := m.snapshot(); st == stateHealthy {
			out = append(out, m)
		}
	}
	return out
}

// all returns every configured member (the last-ditch candidate pool
// when no member is probing healthy — a request is always worth one
// attempt against a suspect member over an unconditional failure).
func (s *memberSet) all() []*member { return s.members }

// get looks a member up by address.
func (s *memberSet) get(addr string) *member { return s.byAddr[addr] }
