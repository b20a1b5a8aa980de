package fuzzgraph

// dropNode returns a copy of the case with node idx removed, along
// with every node that transitively consumes it (a DAG stays valid by
// construction: node args only point backwards). Args are remapped to
// the surviving indices.
func dropNode(cs *Case, idx int) *Case {
	drop := make([]bool, len(cs.Nodes))
	drop[idx] = true
	for j := idx + 1; j < len(cs.Nodes); j++ {
		for _, a := range cs.Nodes[j].Args {
			if a >= 0 && drop[a] {
				drop[j] = true
				break
			}
		}
	}
	out := &Case{
		Seed:   cs.Seed,
		Inputs: append([]InputSpec(nil), cs.Inputs...),
		SegLen: cs.SegLen,
		Fault:  cs.Fault,
	}
	remap := make([]int, len(cs.Nodes))
	for j := range cs.Nodes {
		if drop[j] {
			remap[j] = -1
			continue
		}
		remap[j] = len(out.Nodes)
		ns := cs.Nodes[j]
		ns.Args = append([]int(nil), ns.Args...)
		for t, a := range ns.Args {
			if a >= 0 {
				ns.Args[t] = remap[a]
			}
		}
		out.Nodes = append(out.Nodes, ns)
	}
	return out
}

// pruneInputs drops input leaves no surviving node references.
func pruneInputs(cs *Case) *Case {
	used := make([]bool, len(cs.Inputs))
	for i := range cs.Nodes {
		for _, a := range cs.Nodes[i].Args {
			if a < 0 {
				used[-a-1] = true
			}
		}
	}
	remap := make([]int, len(cs.Inputs))
	out := &Case{Seed: cs.Seed, SegLen: cs.SegLen, Fault: cs.Fault}
	for i, u := range used {
		if !u {
			remap[i] = -1
			continue
		}
		remap[i] = len(out.Inputs)
		out.Inputs = append(out.Inputs, cs.Inputs[i])
	}
	for _, ns := range cs.Nodes {
		ns.Args = append([]int(nil), ns.Args...)
		for t, a := range ns.Args {
			if a < 0 {
				ns.Args[t] = -remap[-a-1] - 1
			}
		}
		out.Nodes = append(out.Nodes, ns)
	}
	return out
}

// minimize shrinks a failing case: it repeatedly tries to drop each
// node (latest first, taking its transitive consumers with it),
// keeping any drop after which the predicate still fails, until a
// fixpoint; then it prunes unreferenced inputs. The predicate must be
// deterministic — it is re-run once per candidate.
func minimize(cs *Case, fails func(*Case) bool) *Case {
	cur := cs
	for changed := true; changed; {
		changed = false
		for i := len(cur.Nodes) - 1; i >= 0; i-- {
			cand := dropNode(cur, i)
			if len(cand.Nodes) == len(cur.Nodes) || len(cand.Nodes) == 0 {
				continue
			}
			if fails(cand) {
				cur = cand
				changed = true
				// Indices above i shifted; restart the sweep.
				break
			}
		}
	}
	cand := pruneInputs(cur)
	if len(cand.Inputs) < len(cur.Inputs) && fails(cand) {
		cur = cand
	}
	return cur
}
