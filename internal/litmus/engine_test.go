package litmus

import (
	"reflect"
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
			set := KeySet(engine)
			for _, k := range oracle {
				if !set[k] {
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
