package compare

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// TestEngineForwardingShape pins the read-own-write-early semantics
// with the 5-op n6-style program:
//
//	P0: st x=1; ld x; ld y  ||  P1: st y=2; stRel x=2
//
// Outcome P0 reads x=1, y=0 with final memory x=1 y=2: on the write-
// buffer models P0's load of x forwards from its own buffered store
// (which performs last, after P1's x=2) while ld y still runs before
// P1 starts. On models that keep loads ordered (SC, bSC1, bWO1) the
// chain st x=1 < ld x < ld y < st y=2 < stRel x=2 < st x=1 is cyclic,
// so they forbid it. WO1 and RC, however, relax load-load order, so
// they reach the same outcome withOUT forwarding (run ld y first,
// then P1, then st x=1, then ld x reads memory): forwarding is only
// observable against models with blocking loads — which is exactly
// why this shape is the minimal PSO-versus-bWO1 witness.
func TestEngineForwardingShape(t *testing.T) {
	prog := []litmus.Thread{
		{litmus.Op{Kind: litmus.OpStore, Loc: 0, Val: 1},
			litmus.Op{Kind: litmus.OpLoad, Loc: 0},
			litmus.Op{Kind: litmus.OpLoad, Loc: 1}},
		{litmus.Op{Kind: litmus.OpStore, Loc: 1, Val: 2},
			litmus.Op{Kind: litmus.OpStore, Loc: 0, Val: 2, Ann: litmus.AnnRelease}},
	}
	tt, _ := litmus.SynthTest(prog)
	const outcome = "P0:r4=1 P0:r5=0 | x=1 y=2"
	allows := func(m consistency.Model) bool {
		keys, err := Outcomes(tt, consistency.SpecFor(m))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return slices.Contains(keys, outcome)
	}
	for _, m := range []consistency.Model{consistency.TSO, consistency.PSO, consistency.PC} {
		if !allows(m) {
			t.Errorf("%s: forwarding outcome %q not allowed; write-buffer forwarding lost", m, outcome)
		}
	}
	for _, m := range []consistency.Model{consistency.SC1, consistency.BSC1, consistency.BWO1} {
		if allows(m) {
			t.Errorf("%s: forwarding outcome %q allowed without a write buffer", m, outcome)
		}
	}
	// WO1/RC mimic the outcome through load-load reordering instead of
	// forwarding, so they must allow it too (see doc comment).
	for _, m := range []consistency.Model{consistency.WO1, consistency.RC} {
		if !allows(m) {
			t.Errorf("%s: outcome %q should be reachable via RR reordering", m, outcome)
		}
	}
}

// TestCompareLattice runs the full default-budget search over all ten
// models and pins the zoo's strictness lattice: the behavioral
// classes, the known strict orders, and the known incomparabilities.
func TestCompareLattice(t *testing.T) {
	res, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("search stopped before exhausting the budget")
	}

	wantClasses := map[string][]string{
		"SC1":  {"SC1", "SC2", "bSC1"},
		"WO1":  {"WO1", "WO2"},
		"RC":   {"RC"},
		"bWO1": {"bWO1"},
		"TSO":  {"TSO"},
		"PSO":  {"PSO"},
		"PC":   {"PC"},
	}
	if len(res.Classes) != len(wantClasses) {
		t.Fatalf("got %d classes, want %d: %+v", len(res.Classes), len(wantClasses), res.Classes)
	}
	for _, c := range res.Classes {
		if !reflect.DeepEqual(c.Models, wantClasses[c.Name]) {
			t.Errorf("class %s: members %v, want %v", c.Name, c.Models, wantClasses[c.Name])
		}
	}

	wantRel := map[[2]string]string{
		{"SC1", "TSO"}:  "stronger", // sb separates
		{"SC1", "bWO1"}: "stronger",
		{"TSO", "PSO"}:  "stronger", // mp separates
		{"TSO", "PC"}:   "stronger",
		{"TSO", "WO1"}:  "stronger",
		{"bWO1", "PSO"}: "stronger", // only forwarding separates
		{"bWO1", "WO1"}: "stronger",
		// Forwarding executions reposition into load-load reordering,
		// so the fully relaxed models subsume the write-buffer ones.
		{"PSO", "WO1"}:  "stronger",
		{"PC", "WO1"}:   "stronger",
		{"PSO", "RC"}:   "stronger",
		{"PC", "RC"}:    "stronger",
		{"WO1", "RC"}:   "stronger", // one-sided release separates
		{"TSO", "bWO1"}: "incomparable",
		{"PSO", "PC"}:   "incomparable",
		{"bWO1", "PC"}:  "incomparable",
	}
	for pair, want := range wantRel {
		if got := res.Relation(pair[0], pair[1]); got != want {
			t.Errorf("Relation(%s, %s) = %s, want %s", pair[0], pair[1], got, want)
		}
	}

	wantHasse := [][2]string{
		{"PC", "WO1"}, {"PSO", "WO1"}, {"SC1", "TSO"}, {"SC1", "bWO1"},
		{"TSO", "PC"}, {"TSO", "PSO"}, {"WO1", "RC"}, {"bWO1", "PSO"},
	}
	if got := res.HasseEdges(); !reflect.DeepEqual(got, wantHasse) {
		t.Errorf("Hasse edges = %v, want %v", got, wantHasse)
	}

	// SC is the unique bottom: strictly stronger than every other
	// class, with nothing it allows that others forbid.
	for _, c := range res.Classes {
		if c.Name == "SC1" {
			continue
		}
		if got := res.Relation("SC1", c.Name); got != "stronger" {
			t.Errorf("Relation(SC1, %s) = %s, want stronger", c.Name, got)
		}
	}

	// Minimal witnesses for the textbook separations.
	for _, c := range []struct {
		weak, strong string
		maxOps       int
	}{
		{"TSO", "SC1", 4},  // store buffering
		{"PSO", "TSO", 4},  // message passing or 2+2W
		{"PC", "TSO", 4},   // message passing via load reordering
		{"PSO", "bWO1", 5}, // forwarding shape needs 5 ops
		{"RC", "WO1", 5},   // one-sided release shape
	} {
		p := res.Pair(c.weak, c.strong)
		if p == nil || !p.Separated {
			t.Errorf("pair (%s, %s): expected separation, got none", c.weak, c.strong)
			continue
		}
		if p.Witness.Ops > c.maxOps {
			t.Errorf("pair (%s, %s): minimal witness has %d ops, want <= %d: %s",
				c.weak, c.strong, p.Witness.Ops, c.maxOps, litmus.FormatProgram(p.Witness.Threads))
		}
		t.Logf("%s \\ %s: %s :: %s", c.weak, c.strong,
			litmus.FormatProgram(p.Witness.Threads), p.Witness.Outcome)
	}
}

// TestCompareDeterministic: two independent searches produce
// identical results, byte for byte.
func TestCompareDeterministic(t *testing.T) {
	a, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical searches produced different results")
	}
}

// TestVerifyOnHardware replays the SC/TSO witness on the simulated
// machines: store buffering must show up on TSO hardware and never on
// SC1, and both sides must stay inside their engine-allowed sets.
// Run counts are kept CI-sized; check compare defaults to 1000.
func TestVerifyOnHardware(t *testing.T) {
	runs := 120
	if testing.Short() {
		runs = 40
	}
	res, err := Compare([]consistency.Model{consistency.SC1, consistency.TSO}, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(litmus.Config{Runs: runs, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	p := res.Pair("TSO", "SC1")
	if p == nil || !p.Separated {
		t.Fatal("TSO/SC1 not separated")
	}
	v := p.Witness.Verification
	if v == nil {
		t.Fatal("no verification record")
	}
	if v.WeakHits == 0 {
		t.Errorf("store-buffering outcome never witnessed on TSO hardware in %d runs", runs)
	}
	if v.StrongViolations != 0 {
		t.Errorf("witness outcome appeared %d times on SC1 hardware", v.StrongViolations)
	}
	if !v.WeakConformant || !v.StrongConformant {
		t.Errorf("hardware escaped the engine's allowed set (weak=%t strong=%t): engine unsound",
			v.WeakConformant, v.StrongConformant)
	}
	if !v.Verified {
		t.Errorf("witness not verified: %+v", v)
	}
	t.Logf("TSO \\ SC1 verified: %s :: %s (first hit seed %d, %d/%d hits)",
		litmus.FormatProgram(p.Witness.Threads), p.Witness.Outcome, v.WeakHitSeed, v.WeakHits, v.Runs)

	// Reverse direction must not exist: SC allows nothing TSO forbids.
	if q := res.Pair("SC1", "TSO"); q != nil && q.Separated {
		t.Errorf("SC1 \\ TSO separation claimed: %s", litmus.FormatProgram(q.Witness.Threads))
	}
}

// TestWitnessRoundTrip: witness files survive a write/load/replay
// cycle.
func TestWitnessRoundTrip(t *testing.T) {
	res, err := Compare([]consistency.Model{consistency.SC1, consistency.TSO}, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := res.WriteWitnesses(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("wrote %d witness files, want 1", n)
	}
	w, err := LoadWitness(dir + "/TSO-not-SC1.json")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(w, litmus.Config{Runs: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if v.StrongViolations != 0 {
		t.Errorf("replayed witness outcome appeared on the strong model %d times", v.StrongViolations)
	}
}

// TestEnumerateCanonical spot-checks the enumerator: programs are
// unique, canonical, and within budget.
func TestEnumerateCanonical(t *testing.T) {
	b := Budget{MaxOps: 4, MaxThreads: 2, MaxLocs: 2, Fences: true, Annotations: true}
	seen := make(map[string]bool)
	count := 0
	b.Enumerate(func(prog []litmus.Thread) bool {
		count++
		key := litmus.FormatProgram(prog)
		if seen[key] {
			t.Fatalf("duplicate program: %s", key)
		}
		seen[key] = true
		ops := 0
		for _, th := range prog {
			ops += len(th)
		}
		if ops < 2 || ops > 4 || len(prog) != 2 {
			t.Fatalf("out-of-budget program: %s", key)
		}
		return true
	})
	if count == 0 {
		t.Fatal("enumerator produced nothing")
	}
	t.Logf("%d canonical programs at ops<=4", count)
}

// TestLeastMissingIsStringLeast: the witness outcome is the least key
// of weak \ strong in string order, the one a scan of sorted keys
// meets first, even where word order puts another first.
func TestLeastMissingIsStringLeast(t *testing.T) {
	key := func(w uint64) string { return strconv.FormatUint(w, 10) }
	for _, c := range []struct {
		weak, strong []uint64
		want         string
		found        bool
	}{
		{[]uint64{2, 10, 11}, []uint64{11}, "10", true},
		{[]uint64{2, 10, 11}, []uint64{1, 10}, "11", true},
		{[]uint64{3, 9}, []uint64{9}, "3", true},
		{[]uint64{2, 10}, []uint64{2, 10, 12}, "", false},
		{nil, []uint64{1}, "", false},
	} {
		got, found := leastMissing(c.weak, c.strong, key)
		if got != c.want || found != c.found {
			t.Errorf("leastMissing(%v, %v) = %q, %v; want %q, %v", c.weak, c.strong, got, found, c.want, c.found)
		}
	}
}
