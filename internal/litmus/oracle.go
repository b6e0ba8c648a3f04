package litmus

import (
	"sort"

	"memsim/internal/consistency"
)

// The sequential-consistency oracle. A litmus test's abstract ops are
// small enough (a handful per thread, at most four threads) that the
// set of SC-reachable outcomes can be computed exactly by enumerating
// every interleaving of the threads' program-ordered operations
// against a single shared memory: that is the definition of
// sequential consistency, operationally. Fences and annotations are
// invisible to the oracle — under SC every access is already strongly
// ordered.

// scOutcomes enumerates a declarative test's SC outcome set by
// depth-first search over which thread performs its next operation.
func (t *Test) scOutcomes() []Outcome {
	// loadIdx[thread][opIndex] is the canonical observed-load slot.
	loadIdx := make([][]int, len(t.Threads))
	nLoads := 0
	for ti, th := range t.Threads {
		loadIdx[ti] = make([]int, len(th))
		for oi, op := range th {
			if op.Kind == OpLoad {
				loadIdx[ti][oi] = nLoads
				nLoads++
			}
		}
	}

	pcs := make([]int, len(t.Threads))
	mem := make([]uint64, t.NLocs)
	obs := make([]uint64, nLoads)
	seen := make(map[string]bool)
	var outcomes []Outcome
	refs := t.loadRefs()

	var rec func()
	rec = func() {
		done := true
		for ti, th := range t.Threads {
			if pcs[ti] >= len(th) {
				continue
			}
			done = false
			op := th[pcs[ti]]
			oi := pcs[ti]
			pcs[ti]++
			switch op.Kind {
			case OpStore:
				old := mem[op.Loc]
				mem[op.Loc] = op.Val
				rec()
				mem[op.Loc] = old
			case OpLoad:
				idx := loadIdx[ti][oi]
				old := obs[idx]
				obs[idx] = mem[op.Loc]
				rec()
				obs[idx] = old
			case OpFence:
				rec()
			}
			pcs[ti]--
		}
		if !done {
			return
		}
		o := Outcome{
			Loads: append([]uint64(nil), obs...),
			Mem:   append([]uint64(nil), mem...),
		}
		key := t.Key(refs, o)
		if !seen[key] {
			seen[key] = true
			outcomes = append(outcomes, o)
		}
	}
	rec()
	return outcomes
}

// OracleKeys returns the oracle's SC outcome set as sorted keys. The
// oracle defines no model's allowed set (Outcomes does); it is the
// independent reference the engine is checked against — equal under
// an SC spec, contained under every spec. A custom test's set is its
// SCSet, on every model and for the oracle too.
func (t *Test) OracleKeys() ([]string, error) {
	if t.Threads == nil {
		return t.Outcomes(consistency.SpecFor(consistency.SC1))
	}
	refs, outcomes := t.loadRefs(), t.scOutcomes()
	keys := make([]string, len(outcomes))
	for i, o := range outcomes {
		keys[i] = t.Key(refs, o)
	}
	sort.Strings(keys)
	return keys, nil
}
