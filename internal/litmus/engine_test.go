package litmus

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"memsim/internal/consistency"
)

// TestEngineAgainstOracle holds the engine to its independent
// reference on the whole library: under an SC spec (SC1, SC2, bSC1)
// the engine's set is exactly the oracle's interleaving set, and under
// every spec it contains it — relaxing order only ever adds outcomes.
func TestEngineAgainstOracle(t *testing.T) {
	for _, lt := range Library() {
		oracle, err := lt.OracleKeys()
		if err != nil {
			t.Fatalf("%s: %v", lt.Name, err)
		}
		for _, m := range consistency.Models {
			spec := consistency.SpecFor(m)
			engine, err := lt.Outcomes(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", lt.Name, m, err)
			}
			if spec.SequentiallyConsistent() {
				if !reflect.DeepEqual(engine, oracle) {
					t.Errorf("%s/%s: engine and oracle differ under an SC spec\n engine: %v\n oracle: %v",
						lt.Name, m, engine, oracle)
				}
				continue
			}
			for _, k := range oracle {
				if !slices.Contains(engine, k) {
					t.Errorf("%s/%s: engine drops SC-reachable outcome %q", lt.Name, m, k)
				}
			}
		}
	}
}

// TestRunRejectsOverCapacity: a program beyond the engine's packed
// state must come back from Run as an error — never as a report with
// an empty allowed set, under which every run would be a "violation".
func TestRunRejectsOverCapacity(t *testing.T) {
	long := make(Thread, maxEngineOps) // 13 ops with the second thread
	for i := range long {
		long[i] = st(0, 1)
	}
	wide := Thread{ld(0), ld(1), ld(2), ld(3)} // 12 ops but 8-bit values
	cases := map[string][]Thread{
		"ops":   {long, {ld(0)}},
		"state": {{st(0, 255), st(1, 1), st(2, 1), st(3, 1)}, wide, wide},
	}
	for name, prog := range cases {
		lt, _ := SynthTest(prog)
		rep, err := Run(lt, consistency.SC1, Config{Runs: 1, Seed: 1})
		if err == nil {
			t.Errorf("%s: Run accepted an over-capacity program (allowed set %v)", name, rep.Allowed)
		} else if !strings.Contains(err.Error(), "engine limit") && !strings.Contains(err.Error(), "capacity") {
			t.Errorf("%s: Run failed, but not on capacity: %v", name, err)
		}
	}
}

// TestVisitedSet: the explorer's open-addressing set admits each state
// once, and keeps doing so across the doublings a large search makes.
// (That a search forgets the last one's states is
// TestExplorerMatchesReference's business: one explorer serves it all.)
func TestVisitedSet(t *testing.T) {
	var x Explorer
	// Keys 64 apart share their low bits, and so would share a slot
	// under a hash that kept only those.
	for i := uint64(1); i <= 5000; i++ {
		if !x.visit(i << 6) {
			t.Fatalf("fresh state %#x reported seen", i<<6)
		}
	}
	for i := uint64(1); i <= 5000; i++ {
		if x.visit(i << 6) {
			t.Fatalf("state %#x admitted twice", i<<6)
		}
	}
	if !x.visit(1) || x.used != 5001 || len(x.seen) != 16384 {
		t.Fatalf("%d states in a table of %d, want 5001 in 16384", x.used, len(x.seen))
	}
}
