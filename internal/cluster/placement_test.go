package cluster

import (
	"fmt"
	"testing"
)

// testSet builds a memberSet over n synthetic addresses.
func testSet(n int) *memberSet {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:8477", i+1)
	}
	return newMemberSet(addrs)
}

// TestRankDeterminism: the rank order for a key is a pure function of
// the key and the member set — identical across calls and independent
// of configuration order, so every router in a fleet computes the same
// replica order.
func TestRankDeterminism(t *testing.T) {
	s1 := newMemberSet([]string{"a:1", "b:1", "c:1", "d:1"})
	s2 := newMemberSet([]string{"d:1", "b:1", "a:1", "c:1"}) // permuted config
	for key := uint64(0); key < 100; key++ {
		r1 := rankMembers(key, s1.all())
		r2 := rankMembers(key, s2.all())
		for i := range r1 {
			if r1[i].addr != r2[i].addr {
				t.Fatalf("key %d rank %d: %s vs %s (config order changed placement)",
					key, i, r1[i].addr, r2[i].addr)
			}
		}
	}
}

// TestRankSpread: rendezvous scores must spread keys roughly evenly —
// with 4 members and 4096 keys each member homes a meaningful share
// (the bound is loose; the property under test is "no member is
// starved or dominant", not a chi-square).
func TestRankSpread(t *testing.T) {
	s := testSet(4)
	counts := map[string]int{}
	const keys = 4096
	for key := uint64(0); key < keys; key++ {
		counts[rankMembers(mix64(key), s.all())[0].addr]++
	}
	for addr, n := range counts {
		if n < keys/8 || n > keys/2 {
			t.Errorf("member %s homes %d/%d keys (want a roughly even spread)", addr, n, keys)
		}
	}
}

// TestMinimalRemap is rendezvous hashing's defining property: removing
// one member moves only the keys it homed (each to its own
// second-ranked member) and leaves every other key's home untouched.
// This is what keeps a membership change from cold-starting the whole
// cluster's weight caches.
func TestMinimalRemap(t *testing.T) {
	s := testSet(4)
	all := s.all()
	removed := all[1]
	survivors := make([]*member, 0, 3)
	for _, m := range all {
		if m != removed {
			survivors = append(survivors, m)
		}
	}
	const keys = 2048
	moved := 0
	for key := uint64(0); key < keys; key++ {
		k := mix64(key ^ 0x9e3779b97f4a7c15)
		before := rankMembers(k, all)
		after := rankMembers(k, survivors)
		if before[0] == removed {
			moved++
			if after[0] != before[1] {
				t.Fatalf("key %d: homed on removed member, failover to %s not its rank-2 %s",
					key, after[0].addr, before[1].addr)
			}
			continue
		}
		if after[0] != before[0] {
			t.Fatalf("key %d: home changed from %s to %s though its member never left",
				key, before[0].addr, after[0].addr)
		}
	}
	if moved == 0 {
		t.Fatal("no key homed on the removed member — test is vacuous")
	}
}

// TestAffinityTable: bind/lookup/rebind semantics and the FIFO
// capacity bound.
func TestAffinityTable(t *testing.T) {
	a := newAffinity(3)
	if _, ok := a.lookup(1); ok {
		t.Fatal("empty table reported a binding")
	}
	if a.bind(1, "x") {
		t.Fatal("first bind reported a rebind")
	}
	if a.bind(1, "x") {
		t.Fatal("re-binding the same member reported a rebind")
	}
	if !a.bind(1, "y") {
		t.Fatal("moving a key to another member did not report a rebind")
	}
	if addr, _ := a.lookup(1); addr != "y" {
		t.Fatalf("lookup after rebind: %s, want y", addr)
	}

	a.bind(2, "x")
	a.bind(3, "x")
	a.bind(4, "x") // capacity 3: key 1 falls out
	if _, ok := a.lookup(1); ok {
		t.Fatal("FIFO eviction kept the oldest key")
	}
	if _, ok := a.lookup(4); !ok {
		t.Fatal("the key bound at capacity is missing")
	}
	if a.size() != 3 {
		t.Fatalf("size %d after eviction, want 3", a.size())
	}
}

// TestMemberStateMachine: strikes demote healthy → suspect → dead;
// a successful probe re-admits from any state and resets strikes;
// draining — reported by a forward's answer or by a probe's health
// reply — is reversible the same way.
func TestMemberStateMachine(t *testing.T) {
	m := &member{addr: "a:1"}
	if st, _, _ := m.snapshot(); st != stateHealthy {
		t.Fatalf("initial state %s, want healthy (optimistic admission)", st)
	}
	if st := m.strike(2); st != stateSuspect {
		t.Fatalf("after 1 strike: %s, want suspect", st)
	}
	if st := m.strike(2); st != stateDead {
		t.Fatalf("after 2 strikes: %s, want dead", st)
	}
	m.readmit(serverHealth("s1", 2))
	st, strikes, h := m.snapshot()
	if st != stateHealthy || strikes != 0 || h.ShardID != "s1" {
		t.Fatalf("after readmit: state=%s strikes=%d shard=%q", st, strikes, h.ShardID)
	}
	m.markDraining(serverHealth("s1", 2))
	if st, _, _ := m.snapshot(); st != stateDraining {
		t.Fatalf("after markDraining: %s", st)
	}
	m.readmit(serverHealth("s1", 2))
	if st, _, _ := m.snapshot(); st != stateHealthy {
		t.Fatalf("draining member did not re-admit: %s", st)
	}

	// A probe reporting a drain records the reply it came with.
	m.strike(2)
	probed := serverHealth("s1b", 3)
	probed.Draining = true
	m.markDraining(probed)
	if st, strikes, h := m.snapshot(); st != stateDraining || strikes != 1 || h != probed {
		t.Fatalf("after a draining probe: state=%s strikes=%d health=%+v", st, strikes, h)
	}
	m.readmit(serverHealth("s1", 2))
	if st, strikes, _ := m.snapshot(); st != stateHealthy || strikes != 0 {
		t.Fatalf("probe-drained member did not re-admit: %s, %d strikes", st, strikes)
	}
}

// TestEligiblePool: only healthy members are ring-eligible; the
// full roster remains reachable as the last-ditch pool.
func TestEligiblePool(t *testing.T) {
	s := testSet(3)
	if len(s.eligible()) != 3 {
		t.Fatalf("eligible = %d, want 3", len(s.eligible()))
	}
	s.all()[0].strike(1) // straight to dead
	s.all()[1].markDraining(serverHealth("s1", 1))
	if got := s.eligible(); len(got) != 1 || got[0] != s.all()[2] {
		t.Fatalf("eligible after demotions = %d members", len(got))
	}
	if len(s.all()) != 3 {
		t.Fatal("roster shrank")
	}
}
