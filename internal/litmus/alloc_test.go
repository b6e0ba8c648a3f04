package litmus

import (
	"runtime"
	"runtime/debug"
	"testing"

	"memsim/internal/consistency"
)

// runBytes returns the heap bytes one Run of the named test under TSO
// allocates, averaged over a few calls after one unmeasured, and the
// violations that Run reports.
func runBytes(t *testing.T, name string, mutate consistency.Mutation, runs int) (bytes uint64, violations int) {
	t.Helper()
	lt, err := TestByName(name)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rep, err := Run(lt, consistency.TSO, Config{Runs: runs, Seed: 1, Mutate: mutate})
		if err != nil {
			t.Fatal(err)
		}
		violations = len(rep.Violations)
	}
	const calls = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls, violations
}

// TestLitmusRunAllocs: past its first, a seed of a warm Run costs its
// simulation and nothing else — not a machine, a replay record,
// programs, directory entries or its outcome: Run keeps one pooled
// machine and one record for all its seeds, and checks each outcome as
// a word. A seed that breaks the model pays for its key and for the
// record its violation keeps, and only for that. What Run pays once
// (the allowed set, the report) cancels out of both figures: the first
// is the difference between 201 seeds and 1, the second between 200
// seeds of sb+fence with the wb-no-drain defect and without it. The
// ceilings are what the commits that set them measured with go1.24 on
// amd64 plus a quarter (5 704 B a violation), and 8 B a seed, which
// absorbs the integer division of a measured 0 B; before outcomes were
// words a seed cost 84 B, and before machines were reused 1 798 B.
func TestLitmusRunAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	one, _ := runBytes(t, "sb", consistency.MutNone, 1)
	many, v := runBytes(t, "sb", consistency.MutNone, 201)
	if v != 0 {
		t.Fatalf("sb under TSO: %d violations, want none", v)
	}
	perSeed := (int64(many) - int64(one)) / 200

	clean, v := runBytes(t, "sb+fence", consistency.MutNone, 200)
	if v != 0 {
		t.Fatalf("sb+fence under TSO: %d violations, want none", v)
	}
	mutated, v := runBytes(t, "sb+fence", consistency.MutWBNoDrain, 200)
	if v < 5 {
		t.Fatalf("sb+fence under TSO with wb-no-drain: %d violations, want several", v)
	}
	perViolation := (int64(mutated) - int64(clean)) / int64(v)
	t.Logf("a seed %d B, a violation %d B (%d of 200 seeds)", perSeed, perViolation, v)
	const seedCeiling, violationCeiling = 8, 7_130
	if perSeed > seedCeiling {
		t.Errorf("a seed of a warm Run of sb under TSO allocates %d B, ceiling %d", perSeed, seedCeiling)
	}
	if perViolation > violationCeiling {
		t.Errorf("a violation of sb+fence under TSO with wb-no-drain costs %d B, ceiling %d", perViolation, violationCeiling)
	}
}

// TestLitmusRunCallAllocs: a whole warm Run of 40 seeds allocates its
// report — the allowed keys, the witnessed maps — and next to nothing
// else: the explorer, the record and the per-word counts come from a
// pooled scratch, the lock test's programs from a pooled builder. The
// ceilings are what the commit that set them measured with go1.24 on
// amd64 plus a quarter; before it a call cost 8 552 B (sb), 107 605 B
// (mp+crowd) and 203 632 B (lock).
func TestLitmusRunCallAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range []struct {
		test    string
		ceiling uint64
	}{
		{"sb", 1_040},        // measured 832 B
		{"mp+crowd", 16_068}, // measured 12 854 B
		{"lock", 920},        // measured 736 B
	} {
		got, v := runBytes(t, c.test, consistency.MutNone, 40)
		if v != 0 {
			t.Fatalf("%s under TSO: %d violations, want none", c.test, v)
		}
		t.Logf("a warm 40-seed Run of %s under TSO allocates %d B", c.test, got)
		if got > c.ceiling {
			t.Errorf("a warm 40-seed Run of %s under TSO allocates %d B, ceiling %d", c.test, got, c.ceiling)
		}
	}
}

// raceBuild reports whether the test binary carries the race detector,
// whose instrumentation allocates.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
