package compare

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"memsim/internal/consistency"
)

var update = flag.Bool("update", false, "rewrite testdata/lattice.json from the current comparator")

// TestLatticePinned holds the whole comparison at the default budget —
// classes, pairs, every witness and its WeakAllowed/StrongAllowed sets
// — to testdata/lattice.json, byte for byte as `check compare -json`
// prints it. Regenerate after an intentional change to the engine or
// the search:
//
//	go test ./internal/compare -run TestLatticePinned -update
func TestLatticePinned(t *testing.T) {
	res, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/lattice.json"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("comparison differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("comparison differs from %s: %d lines, want %d", path, len(g), len(w))
	}
}

// TestBudgetValidate: a budget that admits no program, or one beyond
// the engine's or the synthesizer's capacity, is an error naming the
// field — never an empty search reported as a lattice of equivalent
// classes, and never a panic.
func TestBudgetValidate(t *testing.T) {
	if err := DefaultBudget().Validate(); err != nil {
		t.Fatalf("DefaultBudget: %v", err)
	}
	for _, tc := range []struct {
		field string
		edit  func(*Budget)
	}{
		{"MaxThreads", func(b *Budget) { b.MaxThreads = 1 }},
		{"MaxThreads", func(b *Budget) { b.MaxThreads = 0 }},
		{"MaxOps", func(b *Budget) { b.MaxOps = 1 }},
		{"MaxOps", func(b *Budget) { b.MaxOps = 13 }},
		{"MaxLocs", func(b *Budget) { b.MaxLocs = 0 }},
		{"MaxLocs", func(b *Budget) { b.MaxLocs = 5 }},
		{"MaxLocs", func(b *Budget) { b.MaxLocs = -1 }},
	} {
		b := DefaultBudget()
		tc.edit(&b)
		err := b.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", b, err, tc.field)
			continue
		}
		if _, cerr := Compare(consistency.Models, b); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("%+v: Compare = %v, want the Validate error %v", b, cerr, err)
		}
	}
}

// TestCompareAllocBudget: one comparison at the default budget runs
// every class's engine on every program through one explorer and
// compares their sets as words, so what it allocates is the programs
// and the witnesses, whose keys alone are formatted. The ceiling is
// what the commit that set it measured with go1.24 on amd64 (550 392
// B) plus a quarter; before it a comparison took 4.3 MB.
func TestCompareAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Compare(consistency.Models, DefaultBudget()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 688_000
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compare at DefaultBudget allocates %d B", got)
	if got > ceiling {
		t.Errorf("Compare at DefaultBudget allocates %d B, ceiling %d", got, ceiling)
	}
}
