package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/litmus"
)

// runLitmus runs litmus tests generated onto the simulated machine
// under perturbed seeds, checking every observed outcome against the
// allowed set the engine derives from the model's spec. On SIGINT
// every completed (test, model) pair is reported in full and the
// interrupted pair reports the partial coverage it gathered.
func runLitmus(ctx context.Context, c *cli, args []string) error {
	fs, modelsF := c.flags("litmus")
	var (
		testF   = fs.String("test", "all", "comma-separated litmus test names, or all")
		mutateF = fs.String("mutate", "", mutateUsage)
		runs    = fs.Int("runs", 150, "perturbed runs per (test, model)")
		seed    = fs.Int64("seed", 1, "base seed; run i uses seed+i")
		jsonF   = fs.Bool("json", false, "emit one JSON report per (test, model): a verdict file for check replay")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	tests := litmus.Library()
	if *testF != "all" {
		tests = nil
		for _, n := range strings.Split(*testF, ",") {
			t, err := litmus.TestByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			tests = append(tests, t)
		}
	}
	models, err := consistency.ParseModels(*modelsF)
	if err != nil {
		return err
	}
	mut, err := consistency.ParseMutation(*mutateF)
	if err != nil {
		return err
	}

	cfg := litmus.Config{Runs: *runs, Seed: *seed, Mutate: mut, Ctx: ctx}
	violations, ranPairs := 0, 0
	for _, t := range tests {
		for _, m := range models {
			if ctx.Err() != nil {
				break
			}
			rep, err := litmus.Run(t, m, cfg)
			if err != nil {
				return err
			}
			ranPairs++
			violations += len(rep.Violations)
			if *jsonF {
				if err := c.json(rep); err != nil {
					return err
				}
				continue
			}
			printReport(c, rep)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d outcome(s) %w", violations, errViolations)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted — partial coverage (%d of %d (test, model) pairs started)",
			ranPairs, len(tests)*len(models))
	}
	return nil
}

func printReport(c *cli, r *litmus.Report) {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	if r.Interrupted {
		verdict = "PART"
	}
	unseen := r.Unwitnessed()
	fmt.Fprintf(c.out, "%-4s %-10s %-5s %d runs, witnessed %d/%d allowed outcomes\n",
		verdict, r.Test, r.Model, r.Runs, len(r.Allowed)-len(unseen), len(r.Allowed))
	for _, k := range r.WitnessedKeys() {
		fmt.Fprintf(c.out, "       %6d  %s\n", r.Witnessed[k], k)
	}
	for _, miss := range unseen {
		fmt.Fprintf(c.out, "       unseen  %s\n", miss)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(c.out, "  FORBIDDEN %q  seed=%d  %s\n", v.Outcome, v.Seed, v.Config)
	}
}

// runReplay is the one replay of recorded runs. It reads any verdict
// file — a `litmus -json` stream or a `diff -bundle-dir` bundle —
// re-executes each recorded violation bit-exactly from its embedded
// run spec, and re-derives the allowed set from the current engine
// wherever the program is known (attached, or a library test by name).
// A violation is REPRO when the run reproduces its outcome and the
// engine still forbids it, CLEAN when the run no longer produces it,
// LEGAL when the model now allows it; anything but REPRO is an error.
func runReplay(ctx context.Context, c *cli, paths []string) error {
	if len(paths) == 0 || strings.HasPrefix(paths[0], "-") {
		return errUsage
	}
	total, held := 0, 0
	for _, path := range paths {
		verdicts, err := difftest.ReadVerdicts(path)
		if err != nil {
			return err
		}
		for _, v := range verdicts {
			replayed, err := v.Replay(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			for _, r := range replayed {
				status := r.Status()
				total++
				if status == "REPRO" {
					held++
				}
				fmt.Fprintf(c.out, "%-5s %-11s %-5s seed=%d recorded=%q replayed=%q\n",
					status, v.Test, v.Model, r.Seed, r.Outcome, r.Key)
			}
		}
	}
	fmt.Fprintf(c.out, "check replay: %d recorded violation(s), %d reproduced and still forbidden\n", total, held)
	if held < total {
		return fmt.Errorf("%d recorded violation(s) did not replay to their verdict", total-held)
	}
	return nil
}

func runList(_ context.Context, c *cli, args []string) error {
	if len(args) > 0 {
		return errUsage
	}
	tests := litmus.Library()
	sort.Slice(tests, func(i, j int) bool { return tests[i].Name < tests[j].Name })
	fmt.Fprintln(c.out, "litmus tests (-test):")
	for _, t := range tests {
		fmt.Fprintf(c.out, "  %-10s %s\n", t.Name, t.Doc)
	}
	fmt.Fprintln(c.out, "\nmodels (-models) and the hardware each one is:")
	for _, m := range consistency.Models {
		fmt.Fprintf(c.out, "  %-5s %s\n", m, consistency.SpecFor(m).Summary())
	}
	return nil
}
