package litmus_test

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
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
// returns — the key strings and the slice holding them from Outcomes,
// nothing from Words — on every library test under every spec.
func TestOutcomesWarmAllocs(t *testing.T) {
	if litmus.RaceBuild() {
		t.Skip("the race detector drops pooled builders on purpose")
	}
	var x litmus.Explorer
	for _, lt := range litmus.Library() {
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
			allocs = testing.AllocsPerRun(5, func() {
				if _, err := x.Words(lt, spec); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("%s/%s: warm Words makes %.0f allocations, budget 0", lt.Name, m, allocs)
			}
		}
	}
}

// TestOutcomeWordsMatchKeys pins the outcome word to the key: on every
// library test (the custom lock test included) and every program of
// the comparator's default budget and of 200 generated ones, under
// every spec, the words formatted by Key are exactly Outcomes' keys,
// each allowed outcome packs back to its word, and a value one past
// the widest a field holds does not pack.
func TestOutcomeWordsMatchKeys(t *testing.T) {
	tests := litmus.Library()
	compare.DefaultBudget().Enumerate(func(prog []litmus.Thread) bool {
		lt, _ := litmus.SynthTest(prog)
		tests = append(tests, lt)
		return true
	})
	for i := 0; i < 200; i++ {
		p := difftest.Generate(difftest.DefaultGen(), int64(i))
		lt, _ := litmus.SynthTest(p.Threads)
		tests = append(tests, lt)
	}
	var x litmus.Explorer
	for _, lt := range tests {
		for _, m := range consistency.Models {
			spec := consistency.SpecFor(m)
			name := litmus.FormatProgram(lt.Threads) + " under " + m.String()
			if lt.Threads == nil {
				name = lt.Name + " under " + m.String()
			}
			want, err := x.Outcomes(lt, spec)
			if err != nil {
				t.Fatal(err)
			}
			words, err := x.Words(lt, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.IsSorted(words) || len(slices.Compact(slices.Clone(words))) != len(words) {
				t.Fatalf("%s: words %v not sorted and distinct", name, words)
			}
			keys := make([]string, len(words))
			for i, w := range words {
				keys[i] = x.Key(w)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s: words format to\n %q\nOutcomes gives\n %q", name, keys, want)
			}
			over := uint64(1) << x.ValueBits()
			for _, w := range words {
				o := parseKey(t, x.Key(w))
				if got, ok := x.Pack(o); !ok || got != w {
					t.Fatalf("%s: %s packs to %#x, %v; want its word %#x", name, x.Key(w), got, ok, w)
				}
				for _, vals := range [][]uint64{o.Mem, o.Loads} {
					for i := range vals {
						old := vals[i]
						vals[i] = over
						if got, ok := x.Pack(o); ok {
							t.Fatalf("%s: %s with a value of %d packs to %#x", name, x.Key(w), over, got)
						}
						vals[i] = old
					}
				}
			}
		}
	}
}

// parseKey reads an outcome back from its key,
// "P0:r4=0 P1:r4=1 | x=1 y=1" (no loads: "x=1 y=1").
func parseKey(t *testing.T, key string) litmus.Outcome {
	t.Helper()
	loads, mem, found := strings.Cut(key, " | ")
	if !found {
		loads, mem = "", key
	}
	values := func(s string) []uint64 {
		var vals []uint64
		for _, f := range strings.Fields(s) {
			_, v, _ := strings.Cut(f, "=")
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("key %q: %v", key, err)
			}
			vals = append(vals, n)
		}
		return vals
	}
	return litmus.Outcome{Loads: values(loads), Mem: values(mem)}
}
