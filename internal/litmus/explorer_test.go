package litmus_test

import (
	"fmt"
	"reflect"
	"testing"

	"memsim/internal/compare"
	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/litmus"
)

// TestExplorerMatchesReference holds the explorer to the engine it
// replaced (litmus.RefOutcomes, a map-deduplicated closure DFS) key
// for key under every spec: on every program of the comparator's
// default budget, on the library, on 200 generated programs and on
// programs past the engine's capacity (same error). Every search
// starts from the all-zero state, the one the visited set keeps out of
// its table. One explorer serves every call, in an order that
// alternates small and large searches, so scratch a search fails to
// reset shows up as a wrong set.
func TestExplorerMatchesReference(t *testing.T) {
	var tests []*litmus.Test
	compare.DefaultBudget().Enumerate(func(prog []litmus.Thread) bool {
		lt, _ := litmus.SynthTest(prog)
		tests = append(tests, lt)
		return true
	})
	nEnum := len(tests)
	tests = append(tests, litmus.Library()...)
	for i := 0; i < 200; i++ {
		p := difftest.Generate(difftest.DefaultGen(), int64(i))
		lt, _ := litmus.SynthTest(p.Threads)
		tests = append(tests, lt)
	}
	long := make(litmus.Thread, 12)
	for i := range long {
		long[i] = litmus.Op{Kind: litmus.OpStore, Loc: 0, Val: 1}
	}
	wide := litmus.Thread{{Kind: litmus.OpLoad, Loc: 0}, {Kind: litmus.OpLoad, Loc: 1}}
	for _, prog := range [][]litmus.Thread{
		{long, {{Kind: litmus.OpLoad, Loc: 0}}},
		{{{Kind: litmus.OpStore, Loc: 0, Val: 255}, {Kind: litmus.OpStore, Loc: 1, Val: 1},
			{Kind: litmus.OpStore, Loc: 2, Val: 1}, {Kind: litmus.OpStore, Loc: 3, Val: 1}}, wide, wide, wide},
	} {
		lt, _ := litmus.SynthTest(prog)
		tests = append(tests, lt)
	}

	var x litmus.Explorer
	check := func(lt *litmus.Test, spec consistency.Spec) {
		t.Helper()
		got, gerr := x.Outcomes(lt, spec)
		want, werr := litmus.RefOutcomes(lt, spec)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s under %s: explorer error %v, reference %v", litmus.FormatProgram(lt.Threads), spec.Name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s under %s:\n explorer:  %q\n reference: %q", litmus.FormatProgram(lt.Threads), spec.Name, got, want)
		}
	}
	for i, lt := range tests {
		for _, m := range consistency.Models {
			check(lt, consistency.SpecFor(m))
			// Interleave the largest searches with the smallest.
			if i >= nEnum {
				check(tests[i%nEnum], consistency.SpecFor(m))
			}
		}
	}
}

// TestOutcomesWarmAllocs: a warm explorer allocates only what it
// returns, the key strings and the slice holding them, on every
// declarative library test under every spec. (A custom test's set is
// the SC oracle's, which the explorer does not compute.)
func TestOutcomesWarmAllocs(t *testing.T) {
	var x litmus.Explorer
	for _, lt := range litmus.Library() {
		if lt.Threads == nil {
			continue
		}
		for _, m := range consistency.Models {
			spec := consistency.SpecFor(m)
			keys, err := x.Outcomes(lt, spec)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := x.Outcomes(lt, spec); err != nil {
					t.Fatal(err)
				}
			})
			if budget := float64(len(keys) + 1); allocs > budget {
				t.Errorf("%s/%s: warm Outcomes makes %.0f allocations, budget %.0f (%d keys + the slice)",
					lt.Name, m, allocs, budget, len(keys))
			}
		}
	}
}
