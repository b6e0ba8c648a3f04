package main

import (
	"context"
	"fmt"
	"time"

	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/litmus"
)

// runDiff fuzzes the models with random concurrent programs: each
// seeded draw runs on the simulated hardware under every selected
// model and every observed outcome is checked for containment in the
// engine's allowed set (cross-validated against the SC interleaving
// oracle). A violating program is delta-debugged to a 1-minimal
// reproducer whose failing report, program attached, is the bundle.
func runDiff(ctx context.Context, c *cli, args []string) error {
	fs, modelsF := c.flags("diff")
	gen := difftest.DefaultGen()
	var (
		programs  = fs.Int("programs", 50, "number of random programs to check (0 = until -for deadline)")
		forF      = fs.Duration("for", 0, "time-box the sweep (soak mode); 0 means no deadline")
		runs      = fs.Int("runs", 25, "perturbed hardware runs per (program, model)")
		seed      = fs.Int64("seed", 1, "base seed; program p is drawn from seed+p")
		mutateF   = fs.String("mutate", "", mutateUsage)
		bundleDir = fs.String("bundle-dir", "", "write one repro bundle per shrunk violation into this directory")
		noShrink  = fs.Bool("no-shrink", false, "skip delta-debugging of violating programs")
		verbose   = fs.Bool("v", false, "log every program checked")
	)
	fs.IntVar(&gen.Threads, "threads", gen.Threads, "max threads per program (2..4)")
	fs.IntVar(&gen.Ops, "ops", gen.Ops, fmt.Sprintf("max total ops per program (2..%d)", difftest.MaxOps))
	fs.IntVar(&gen.Locs, "locs", gen.Locs, fmt.Sprintf("max distinct locations (1..%d)", difftest.MaxLocs))
	fs.IntVar(&gen.StorePct, "stores", gen.StorePct, "percent of accesses that are stores")
	fs.IntVar(&gen.SyncPct, "sync", gen.SyncPct, "percent of ops carrying synchronization (fence/acquire/release)")
	fs.IntVar(&gen.FalseSharePct, "false-share", gen.FalseSharePct, "percent of programs with same-cache-line locations")
	if err := parse(fs, args); err != nil {
		return err
	}
	models, err := consistency.ParseModels(*modelsF)
	if err != nil {
		return err
	}
	mut, err := consistency.ParseMutation(*mutateF)
	if err != nil {
		return err
	}
	if err := gen.Validate(); err != nil {
		return err
	}
	if *programs <= 0 && *forF <= 0 {
		return fmt.Errorf("need -programs > 0 or a -for deadline")
	}
	cfg := difftest.CheckConfig{Runs: *runs, Seed: *seed, Mutate: mut}

	var deadline time.Time
	if *forF > 0 {
		deadline = time.Now().Add(*forF)
	}
	checked, violations, bundles := 0, 0, 0
	for p := 0; (*programs <= 0 || p < *programs) && ctx.Err() == nil; p++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		prog := difftest.Generate(gen, *seed+int64(p))
		rep, err := difftest.CheckProgram(ctx, prog, models, cfg)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		checked++
		text := litmus.FormatProgram(prog.Threads)
		if *verbose {
			fmt.Fprintf(c.out, "ok   %-6d %s\n", prog.Seed, text)
		}
		fr := rep.Failed()
		if fr == nil {
			continue
		}
		// One shrunk reproducer per program is enough.
		violations++
		v := fr.Violations[0]
		fmt.Fprintf(c.out, "FAIL %-6d %s\n", prog.Seed, text)
		fmt.Fprintf(c.out, "     %s observed %q (seed %d), outside %d allowed outcomes\n",
			fr.Model, v.Outcome, v.Seed, len(fr.Allowed))
		model, _ := consistency.ParseModel(fr.Model)
		bundle := difftest.Verdict{Program: &prog, Gen: &gen, CheckSeed: cfg.Seed}
		if !*noShrink {
			min, info, err := difftest.Shrink(ctx, prog, model, cfg)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				return err
			}
			fmt.Fprintf(c.out, "     shrunk %d -> %d ops (%d candidates): %s\n",
				info.FromOps, info.ToOps, info.Candidates, litmus.FormatProgram(min.Threads))
			bundle.Program, bundle.Original = &min, prog.Threads
		}
		// The bundle is the report of the minimized program, whose
		// allowed set and replay specs match it rather than prog.
		bundle.Report, err = difftest.CheckModel(ctx, *bundle.Program, model, cfg)
		if err != nil {
			return err
		}
		if bundle.OK() {
			return fmt.Errorf("shrunk program no longer violates (shrinker bug)")
		}
		if *bundleDir != "" {
			path, err := bundle.Write(*bundleDir)
			if err != nil {
				return err
			}
			bundles++
			fmt.Fprintf(c.out, "     bundle: %s\n", path)
		}
	}

	fmt.Fprintf(c.out, "difftest: %d programs x %d models x %d runs", checked, len(models), *runs)
	if mut != consistency.MutNone {
		fmt.Fprintf(c.out, " (mutation %s)", mut)
	}
	if violations == 0 {
		fmt.Fprintln(c.out, ": no discrepancies")
	} else {
		fmt.Fprintf(c.out, ": %d violation(s)", violations)
		if bundles > 0 {
			fmt.Fprintf(c.out, ", %d bundle(s) in %s", bundles, *bundleDir)
		}
		fmt.Fprintln(c.out)
	}
	if violations > 0 {
		return fmt.Errorf("%d program(s) with outcomes %w", violations, errViolations)
	}
	return ctx.Err()
}
