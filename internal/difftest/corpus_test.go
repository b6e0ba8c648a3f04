package difftest

import (
	"context"
	"path/filepath"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// The committed corpus under testdata/corpus holds shrunk, replayable
// reproducers difftest found against the seeded defect models
// (sc-overlap, wb-no-drain). It is the regression net for the
// perturbation driver, the replay path, and the mutations themselves:
// each bundle must keep replaying to its recorded forbidden outcome,
// and the same minimized programs must run clean on the real
// (unmutated) models.

func corpusBundles(t *testing.T) []*Verdict {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus bundles under testdata/corpus")
	}
	var bundles []*Verdict
	for _, path := range paths {
		vs, err := ReadVerdicts(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 || vs[0].Program == nil || len(vs[0].Program.Threads) == 0 || len(vs[0].Violations) == 0 {
			t.Fatalf("%s: want one bundle: a failing report with its program attached", path)
		}
		b := vs[0]
		if b.Name() != filepath.Base(path) {
			t.Fatalf("%s: bundle names itself %s", path, b.Name())
		}
		if b.Mutate == "" {
			t.Fatalf("%s: corpus bundle has no seeded mutation (a real-model violation does not belong in the regression corpus)", path)
		}
		bundles = append(bundles, b)
	}
	return bundles
}

// TestCorpusStillReproduces: every committed bundle replays to its
// recorded verdict — the mutated hardware still produces the recorded
// forbidden outcome bit-exactly, and that outcome is still outside the
// current model contract.
func TestCorpusStillReproduces(t *testing.T) {
	for _, b := range corpusBundles(t) {
		res, err := b.Replay(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		for _, r := range res {
			if r.Key != r.Outcome {
				t.Errorf("%s: recorded %q (seed %d), replay produced %q", b.Name(), r.Outcome, r.Seed, r.Key)
			}
			if !r.Forbidden {
				t.Errorf("%s: recorded outcome %q is now inside the allowed set", b.Name(), r.Outcome)
			}
		}
	}
}

// TestCorpusMutantsStillCaught: re-running the full differential check
// on each bundle's minimized program (same model, mutation, seeds)
// still finds a violation — the corpus programs remain effective
// mutation killers, independent of the recorded run.
func TestCorpusMutantsStillCaught(t *testing.T) {
	for _, b := range corpusBundles(t) {
		model, err := consistency.ParseModel(b.Model)
		if err != nil {
			t.Fatal(err)
		}
		mut, err := consistency.ParseMutation(b.Mutate)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := CheckModel(context.Background(), *b.Program, model, CheckConfig{Runs: b.Runs, Seed: b.CheckSeed, Mutate: mut})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Errorf("%s: minimized program no longer catches %s under %s over %d runs",
				b.Name(), b.Mutate, b.Model, b.Runs)
		}
	}
}

// TestCorpusRealModelsPass: the same minimized programs run clean on
// every unmutated model — the corpus flags defects, not the hardware.
func TestCorpusRealModelsPass(t *testing.T) {
	cfg := CheckConfig{Runs: 15, Seed: 1}
	for _, b := range corpusBundles(t) {
		rep, err := CheckProgram(context.Background(), *b.Program, consistency.Models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mr := range rep.Models {
			for _, v := range mr.Violations {
				t.Errorf("%s: unmutated %s produced forbidden %q on the corpus program %s",
					b.Name(), mr.Model, v.Outcome, litmus.FormatProgram(b.Program.Threads))
			}
		}
	}
}

// TestBundleRoundTrip: a freshly assembled bundle written to disk and
// loaded back replays identically to the in-memory original.
func TestBundleRoundTrip(t *testing.T) {
	g := DefaultGen()
	cfg := CheckConfig{Runs: 40, Seed: 1, Mutate: consistency.MutWBNoDrain}
	var bundle *Verdict
	for seed := int64(1); seed <= 80 && bundle == nil; seed++ {
		p := Generate(g, seed)
		for _, m := range consistency.Models {
			rep, err := CheckModel(context.Background(), p, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				bundle = &Verdict{Report: rep, Program: &p, Gen: &g, CheckSeed: cfg.Seed}
				break
			}
		}
	}
	if bundle == nil {
		t.Fatal("no wb-no-drain violation in 80 seeds")
	}

	dir := t.TempDir()
	path, err := bundle.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadVerdicts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || len(loaded[0].Violations) != len(bundle.Violations) {
		t.Fatalf("wrote one bundle with %d violations, read back %d verdicts", len(bundle.Violations), len(loaded))
	}
	res, err := loaded[0].Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Status() != "REPRO" {
			t.Fatalf("round-tripped bundle failed to replay: %s still-forbidden=%t key=%q recorded=%q",
				r.Status(), r.Forbidden, r.Key, r.Outcome)
		}
	}
}
