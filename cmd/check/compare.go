package main

import (
	"context"
	"fmt"
	"strings"

	"memsim/internal/compare"
	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// runCompare enumerates every canonical litmus-shaped program within
// a budget, computes each model's allowed outcome set with the
// engine, and reports, for every ordered pair of behavioral classes,
// a minimal program plus outcome that one class admits and the other
// forbids. With -verify the witnesses run on the simulated hardware:
// the outcome must show up under the weaker model and never under the
// stronger one, and everything either machine produces must stay
// inside its engine-allowed set. A witness file is a program and an
// outcome re-verified statistically on two models, not a recorded
// run, so its replay stays here.
func runCompare(ctx context.Context, c *cli, args []string) error {
	fs, modelsF := c.flags("compare")
	budget := compare.DefaultBudget()
	fs.IntVar(&budget.MaxOps, "ops", budget.MaxOps, "max total operations per program")
	fs.IntVar(&budget.MaxThreads, "threads", budget.MaxThreads, "max threads per program")
	fs.IntVar(&budget.MaxLocs, "locs", budget.MaxLocs, "max distinct locations per program")
	fs.BoolVar(&budget.Fences, "fences", budget.Fences, "include fences in the search alphabet")
	fs.BoolVar(&budget.Annotations, "ann", budget.Annotations, "include acquire/release annotations")
	hw := litmus.Config{Ctx: ctx}
	fs.IntVar(&hw.Runs, "runs", 1000, "perturbed hardware runs per side per witness (-verify, -replay)")
	fs.Int64Var(&hw.Seed, "seed", 1, "base seed for hardware runs")
	var (
		verify  = fs.Bool("verify", false, "run witnesses on the simulated hardware")
		witDir  = fs.String("witness-dir", "", "write one replayable witness JSON per separated pair into this directory")
		replayF = fs.String("replay", "", "re-verify a single witness file and exit")
		jsonF   = fs.Bool("json", false, "emit the full result as JSON")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *replayF != "" {
		w, err := compare.LoadWitness(*replayF)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "witness %s \\ %s: %s\n", w.Weak, w.Strong, litmus.FormatProgram(w.Threads))
		fmt.Fprintf(c.out, "  outcome %s\n", w.Outcome)
		v, err := compare.Replay(w, hw)
		if err != nil {
			return err
		}
		printVerification(c, v)
		if unsound(v) {
			return fmt.Errorf("replay failed: strong-side violations=%d weak-conformant=%t strong-conformant=%t",
				v.StrongViolations, v.WeakConformant, v.StrongConformant)
		}
		return nil
	}

	models, err := consistency.ParseModels(*modelsF)
	if err != nil {
		return err
	}
	res, err := compare.Compare(models, budget)
	if err != nil {
		return err
	}
	if *verify {
		if err := res.Verify(hw); err != nil {
			return err
		}
	}
	if *witDir != "" {
		n, err := res.WriteWitnesses(*witDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "check compare: wrote %d witness files to %s\n", n, *witDir)
	}
	if *jsonF {
		return c.json(res)
	}
	printResult(c, res, *verify)
	for _, p := range res.Pairs {
		for _, w := range p.Candidates {
			if w.Verification != nil && unsound(w.Verification) {
				return fmt.Errorf("hardware produced an outcome its model's engine forbids")
			}
		}
	}
	return nil
}

// unsound reports whether a verification saw hardware escape its
// engine-allowed set or the strong model exhibit the witness.
func unsound(v *compare.Verification) bool {
	return v.StrongViolations > 0 || !v.WeakConformant || !v.StrongConformant
}

func printResult(c *cli, r *compare.Result, verified bool) {
	fmt.Fprintf(c.out, "searched %d canonical programs (ops<=%d threads<=%d locs<=%d fences=%t ann=%t)\n",
		r.Programs, r.Budget.MaxOps, r.Budget.MaxThreads, r.Budget.MaxLocs,
		r.Budget.Fences, r.Budget.Annotations)
	fmt.Fprintln(c.out, "\nbehavioral classes:")
	for _, cl := range r.Classes {
		sig := cl.Sig
		if sig == "SC" {
			sig = "nothing (sequentially consistent)"
		}
		fmt.Fprintf(c.out, "  %-5s {%s}  relaxes: %s\n", cl.Name, strings.Join(cl.Models, ", "), sig)
	}

	fmt.Fprintln(c.out, "\nstrictness lattice (stronger -> weaker):")
	for _, e := range r.HasseEdges() {
		fmt.Fprintf(c.out, "  %s -> %s\n", e[0], e[1])
	}
	var incomparable [][2]string
	for i, a := range r.Classes {
		for _, b := range r.Classes[i+1:] {
			if r.Relation(a.Name, b.Name) == "incomparable" {
				incomparable = append(incomparable, [2]string{a.Name, b.Name})
			}
		}
	}
	if len(incomparable) > 0 {
		fmt.Fprintln(c.out, "incomparable:")
		for _, p := range incomparable {
			fmt.Fprintf(c.out, "  %s >< %s\n", p[0], p[1])
		}
	}

	fmt.Fprintln(c.out, "\nwitnesses (outcome allowed on weak, forbidden on strong):")
	for _, p := range r.Pairs {
		if !p.Separated {
			continue
		}
		w := p.Witness
		fmt.Fprintf(c.out, "  %s \\ %s  (%d ops)\n    %s\n    outcome: %s\n",
			p.Weak, p.Strong, w.Ops, litmus.FormatProgram(w.Threads), w.Outcome)
		if w.Verification != nil {
			printVerification(c, w.Verification)
		}
	}
	if !verified {
		fmt.Fprintln(c.out, "\n(engine-only lattice; rerun with -verify to replay witnesses on the hardware)")
	}
}

func printVerification(c *cli, v *compare.Verification) {
	word := "VERIFIED"
	if !v.Verified {
		word = "UNVERIFIED"
	}
	fmt.Fprintf(c.out, "    %s: %s hits %d/%d (first seed %d); %s violations %d/%d; conformant weak=%t strong=%t\n",
		word, v.WeakModel, v.WeakHits, v.Runs, v.WeakHitSeed,
		v.StrongModel, v.StrongViolations, v.Runs, v.WeakConformant, v.StrongConformant)
	if !v.Verified && v.WeakHits == 0 && v.StrongViolations == 0 {
		fmt.Fprintf(c.out, "    (architecturally separated; the %s hardware did not open the timing window in %d runs)\n",
			v.WeakModel, v.Runs)
	}
}
