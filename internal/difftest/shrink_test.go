package difftest

import (
	"context"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// findViolating scans generator seeds for programs the mutated
// hardware fails on, returning up to want (program, model) pairs.
// Deterministic: fixed dials, fixed seed range, fixed check seeds.
func findViolating(t *testing.T, mut consistency.Mutation, models []consistency.Model, want int) []struct {
	prog  Program
	model consistency.Model
} {
	t.Helper()
	g := DefaultGen()
	cfg := CheckConfig{Runs: 40, Seed: 1, Mutate: mut}
	var out []struct {
		prog  Program
		model consistency.Model
	}
	for seed := int64(1); seed <= 80 && len(out) < want; seed++ {
		p := Generate(g, seed)
		for _, m := range models {
			rep, err := CheckModel(context.Background(), p, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				out = append(out, struct {
					prog  Program
					model consistency.Model
				}{p, m})
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no violating program in 80 seeds under %s (generator or mutation self-check broken)", mut)
	}
	return out
}

// TestShrinkProperties: for seeded-defect violations found by the
// generator, the shrinker's output (1) still violates under the same
// check, (2) is no larger than its input, and (3) is 1-minimal under
// op removal — dropping any single remaining operation yields a
// program the check passes.
func TestShrinkProperties(t *testing.T) {
	cases := []struct {
		mut    consistency.Mutation
		models []consistency.Model
	}{
		{consistency.MutWBNoDrain, consistency.Models},
		{consistency.MutSCOverlap, []consistency.Model{consistency.SC1, consistency.SC2, consistency.BSC1}},
	}
	for _, tc := range cases {
		cfg := CheckConfig{Runs: 40, Seed: 1, Mutate: tc.mut}
		for _, f := range findViolating(t, tc.mut, tc.models, 2) {
			min, info, err := Shrink(context.Background(), f.prog, f.model, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// (2) No larger than the input.
			if min.Ops() > f.prog.Ops() {
				t.Errorf("%s/%s: shrink grew the program %d -> %d ops", tc.mut, f.model, f.prog.Ops(), min.Ops())
			}
			if info.FromOps != f.prog.Ops() || info.ToOps != min.Ops() {
				t.Errorf("%s/%s: ShrinkInfo %d->%d disagrees with programs %d->%d",
					tc.mut, f.model, info.FromOps, info.ToOps, f.prog.Ops(), min.Ops())
			}

			// (1) Still violates.
			rep, err := CheckModel(context.Background(), min, f.model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) == 0 {
				t.Errorf("%s/%s: shrunk program no longer violates: %s", tc.mut, f.model, litmus.FormatProgram(min.Threads))
				continue
			}

			// (3) 1-minimal under op removal.
			for ti, th := range min.Threads {
				for oi := range th {
					cand := removeOp(min, ti, oi)
					if cand.Ops() == 0 || len(cand.Threads) == 0 {
						continue
					}
					crep, err := CheckModel(context.Background(), cand, f.model, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(crep.Violations) > 0 {
						t.Errorf("%s/%s: not 1-minimal — removing thread %d op %d still violates:\n  min:  %s\n  cand: %s",
							tc.mut, f.model, ti, oi, litmus.FormatProgram(min.Threads), litmus.FormatProgram(cand.Threads))
					}
				}
			}
			// And under thread removal.
			if len(min.Threads) > 1 {
				for ti := range min.Threads {
					cand := removeThread(min, ti)
					crep, err := CheckModel(context.Background(), cand, f.model, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(crep.Violations) > 0 {
						t.Errorf("%s/%s: not 1-minimal — removing whole thread %d still violates", tc.mut, f.model, ti)
					}
				}
			}
		}
	}
}

// TestShrinkPassingProgramUnchanged: Shrink re-verifies the input
// before reducing; a program that does not fail comes back unchanged.
func TestShrinkPassingProgramUnchanged(t *testing.T) {
	p := Generate(DefaultGen(), 1)
	cfg := CheckConfig{Runs: 10, Seed: 1}
	min, info, err := Shrink(context.Background(), p, consistency.SC1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if litmus.FormatProgram(min.Threads) != litmus.FormatProgram(p.Threads) || info.Accepted != 0 {
		t.Fatalf("shrink altered a passing program: %s -> %s (%d accepted)",
			litmus.FormatProgram(p.Threads), litmus.FormatProgram(min.Threads), info.Accepted)
	}
}

// TestShrinkReductionHelpers: the reduction primitives preserve
// structural invariants — no empty threads, locations renamed into
// first-use order, op counts as expected.
func TestShrinkReductionHelpers(t *testing.T) {
	p := Generate(DefaultGen(), 3)
	for ti := range p.Threads {
		q := removeThread(p, ti)
		if len(q.Threads) != len(p.Threads)-1 {
			t.Fatalf("removeThread(%d): %d threads, want %d", ti, len(q.Threads), len(p.Threads)-1)
		}
		for _, th := range q.Threads {
			if len(th) == 0 {
				t.Fatalf("removeThread(%d) left an empty thread", ti)
			}
		}
		if q.NLocs() > p.NLocs() {
			t.Fatalf("removeThread(%d) grew the location set", ti)
		}
	}
	for ti, th := range p.Threads {
		for oi := range th {
			q := removeOp(p, ti, oi)
			if q.Ops() != p.Ops()-1 {
				t.Fatalf("removeOp(%d,%d): %d ops, want %d", ti, oi, q.Ops(), p.Ops()-1)
			}
		}
	}
	if n := p.NLocs(); n >= 2 {
		q := mergeLocs(p, 0, 1)
		if q.NLocs() >= n {
			t.Fatalf("mergeLocs(0,1): %d locations, want < %d", q.NLocs(), n)
		}
	}
	q, _ := canonValues(p)
	if q.Ops() != p.Ops() {
		t.Fatalf("canonValues changed op count %d -> %d", p.Ops(), q.Ops())
	}
	if qq, changed := canonValues(q); changed {
		t.Fatalf("canonValues not idempotent: %s -> %s", litmus.FormatProgram(q.Threads), litmus.FormatProgram(qq.Threads))
	}
}
