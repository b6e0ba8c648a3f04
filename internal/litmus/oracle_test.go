package litmus

import (
	"slices"
	"sort"
	"testing"

	"memsim/internal/consistency"
)

// keysOf enumerates a test's SC oracle set as sorted outcome keys.
func keysOf(t *testing.T, lt *Test) []string {
	t.Helper()
	refs := lt.loadRefs()
	var keys []string
	for _, o := range lt.scOutcomes() {
		keys = append(keys, lt.Key(refs, o))
	}
	sort.Strings(keys)
	return keys
}

func TestOracleSB(t *testing.T) {
	lt, err := TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(t, lt)
	want := []string{
		"P0:r4=0 P1:r4=1 | x=1 y=1",
		"P0:r4=1 P1:r4=0 | x=1 y=1",
		"P0:r4=1 P1:r4=1 | x=1 y=1",
	}
	if len(got) != len(want) {
		t.Fatalf("SB SC set: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SB SC set: got %v, want %v", got, want)
		}
	}
	// The defining non-SC outcome must be absent from the oracle set.
	for _, k := range got {
		if k == "P0:r4=0 P1:r4=0 | x=1 y=1" {
			t.Fatalf("SB oracle set contains the store-buffering outcome: %v", got)
		}
	}
}

func TestOracleMP(t *testing.T) {
	lt, err := TestByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(t, lt)
	// The reader loads flag (r4) then data (r5); SC forbids exactly
	// flag=1 with stale data=0.
	want := []string{
		"P1:r4=0 P1:r5=0 | data=1 flag=1",
		"P1:r4=0 P1:r5=1 | data=1 flag=1",
		"P1:r4=1 P1:r5=1 | data=1 flag=1",
	}
	if len(got) != len(want) {
		t.Fatalf("MP SC set: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MP SC set: got %v, want %v", got, want)
		}
	}
	for _, k := range got {
		if k == "P1:r4=1 P1:r5=0 | data=1 flag=1" {
			t.Fatalf("MP oracle set contains the stale-data outcome: %v", got)
		}
	}
}

func TestOracleIRIW(t *testing.T) {
	lt, err := TestByName("iriw")
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(t, lt)
	// 2^4 = 16 raw load combinations; SC forbids exactly the one where
	// the two readers observe the writes in contradictory orders.
	if len(got) != 15 {
		t.Fatalf("IRIW SC set size: got %d (%v), want 15", len(got), got)
	}
	forbidden := "P2:r4=1 P2:r5=0 P3:r4=1 P3:r5=0 | x=1 y=1"
	for _, k := range got {
		if k == forbidden {
			t.Fatalf("IRIW oracle set contains the contradictory-order outcome %q", forbidden)
		}
	}
}

func TestOracleCoherence(t *testing.T) {
	corr, err := TestByName("corr")
	if err != nil {
		t.Fatal(err)
	}
	// Loads of one location: (0,0), (0,1), (1,1). Never (1,0).
	if got := keysOf(t, corr); len(got) != 3 {
		t.Fatalf("CoRR SC set size: got %d (%v), want 3", len(got), got)
	}
	coww, err := TestByName("coww")
	if err != nil {
		t.Fatal(err)
	}
	// Reader pairs vs. writer's st 1; st 2: (0,0) (0,1) (0,2) (1,1)
	// (1,2) (2,2) — final memory always 2.
	got := keysOf(t, coww)
	if len(got) != 6 {
		t.Fatalf("CoWW SC set size: got %d (%v), want 6", len(got), got)
	}
	for _, k := range got {
		if k == "P1:r4=2 P1:r5=1 | x=2" || k == "P1:r4=2 P1:r5=0 | x=2" || k == "P1:r4=1 P1:r5=0 | x=2" {
			t.Fatalf("CoWW oracle set contains a backwards observation: %v", got)
		}
	}
}

func TestAllowedGating(t *testing.T) {
	lb, err := TestByName("lb")
	if err != nil {
		t.Fatal(err)
	}
	reordered := "P0:r4=1 P1:r4=1 | x=1 y=1"
	// Relaxed non-blocking hardware may see load buffering…
	if !slices.Contains(lb.AllowedKeys(consistency.SpecFor(consistency.WO1)), reordered) {
		t.Errorf("LB outcome %q should be allowed under WO1", reordered)
	}
	// …but blocking-load relaxed hardware may not…
	if slices.Contains(lb.AllowedKeys(consistency.SpecFor(consistency.BWO1)), reordered) {
		t.Errorf("LB outcome %q must not be allowed under bWO1 (blocking loads)", reordered)
	}
	// …and SC hardware never.
	if slices.Contains(lb.AllowedKeys(consistency.SpecFor(consistency.SC1)), reordered) {
		t.Errorf("LB outcome %q must not be allowed under SC1", reordered)
	}

	sb, err := TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	sbRelaxed := "P0:r4=0 P1:r4=0 | x=1 y=1"
	for _, m := range consistency.Models {
		spec := consistency.SpecFor(m)
		got := slices.Contains(sb.AllowedKeys(spec), sbRelaxed)
		want := !spec.SequentiallyConsistent()
		if got != want {
			t.Errorf("SB outcome %q under %s: allowed=%t, want %t", sbRelaxed, m, got, want)
		}
	}
}
