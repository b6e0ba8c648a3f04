// difftest fuzzes the memory models with random concurrent programs:
// each seeded draw is run on the simulated hardware under every
// selected model and every observed final-state outcome is checked
// for containment in the spec-derived allowed-outcome engine's set
// (cross-validated against the SC interleaving oracle). A violation
// is automatically delta-debugged to a 1-minimal reproducer and
// emitted as a self-contained JSON repro bundle that replays
// bit-exactly.
//
// Usage:
//
//	difftest                                  # 50 programs, all models
//	difftest -programs 500 -runs 50 -seed 7   # deeper sweep
//	difftest -for 5m                          # time-boxed soak
//	difftest -threads 4 -ops 10 -locs 4       # wider programs
//	difftest -stores 70 -sync 30 -false-share 50
//	difftest -models SC1,TSO                  # restrict the model set
//	difftest -mutate sc-overlap               # seed a defect (self-check)
//	difftest -bundle-dir repros/              # write repro bundles
//	difftest -replay repros/sc-overlap-sc1-3.json
//
// Exit status is nonzero if any violation was found (or, with
// -replay, if the bundle fails to replay to its recorded verdict).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/litmus"
)

func main() {
	var (
		programs = flag.Int("programs", 50, "number of random programs to check (0 = until -for deadline)")
		forF     = flag.Duration("for", 0, "time-box the sweep (soak mode); 0 means no deadline")
		runs     = flag.Int("runs", 25, "perturbed hardware runs per (program, model)")
		seed     = flag.Int64("seed", 1, "base seed; program p is drawn from seed+p")
		modelsF  = flag.String("models", "all",
			fmt.Sprintf("comma-separated models (%s), or all", strings.Join(consistency.ModelNames(), ",")))
		threads    = flag.Int("threads", 3, "max threads per program (2..4)")
		ops        = flag.Int("ops", 8, fmt.Sprintf("max total ops per program (2..%d)", difftest.MaxOps))
		locs       = flag.Int("locs", 3, fmt.Sprintf("max distinct locations (1..%d)", difftest.MaxLocs))
		stores     = flag.Int("stores", 50, "percent of accesses that are stores")
		syncPct    = flag.Int("sync", 15, "percent of ops carrying synchronization (fence/acquire/release)")
		falseShare = flag.Int("false-share", 25, "percent of programs with same-cache-line locations")
		mutate     = flag.String("mutate", "", "seed a spec defect (sc-overlap, wb-no-drain) for the self-check")
		bundleDir  = flag.String("bundle-dir", "", "write one repro bundle per shrunk violation into this directory")
		replayF    = flag.String("replay", "", "replay a repro bundle and exit (0 iff it reproduces its verdict)")
		noShrink   = flag.Bool("no-shrink", false, "skip delta-debugging of violating programs")
		verbose    = flag.Bool("v", false, "log every program checked")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *replayF != "" {
		if err := replay(ctx, *replayF); err != nil {
			fatal(err)
		}
		return
	}

	models, err := consistency.ParseModels(*modelsF)
	if err != nil {
		fatal(err)
	}
	mut, err := consistency.ParseMutation(*mutate)
	if err != nil {
		fatal(err)
	}
	gen := difftest.GenConfig{
		Threads: *threads, Ops: *ops, Locs: *locs,
		StorePct: *stores, SyncPct: *syncPct, FalseSharePct: *falseShare,
	}
	if err := gen.Validate(); err != nil {
		fatal(err)
	}
	if *programs <= 0 && *forF <= 0 {
		fatal(fmt.Errorf("need -programs > 0 or a -for deadline"))
	}
	cfg := difftest.CheckConfig{Runs: *runs, Seed: *seed, Mutate: mut}

	var deadline time.Time
	if *forF > 0 {
		deadline = time.Now().Add(*forF)
	}
	checked, violations, bundles := 0, 0, 0
	interrupted := false
	for p := 0; *programs <= 0 || p < *programs; p++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		prog := difftest.Generate(gen, *seed+int64(p))
		rep, err := difftest.CheckProgram(ctx, prog, models, cfg)
		if err != nil {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			fatal(err)
		}
		checked++
		if *verbose {
			fmt.Printf("ok   %-6d %s\n", prog.Seed, rep.Text)
		}
		if fr := rep.Failed(); fr != nil { // one shrunk reproducer per program is enough
			violations++
			v := fr.Violations[0]
			fmt.Printf("FAIL %-6d %s\n", prog.Seed, rep.Text)
			fmt.Printf("     %s observed %q (seed %d), outside %d allowed outcomes\n",
				fr.Model, v.Outcome, v.Seed, len(fr.Allowed))
			model, _ := consistency.ParseModel(fr.Model)
			min := prog
			if !*noShrink {
				var info *difftest.ShrinkInfo
				min, info, err = difftest.Shrink(ctx, prog, model, cfg)
				if err != nil {
					if ctx.Err() != nil {
						interrupted = true
						break
					}
					fatal(err)
				}
				fmt.Printf("     shrunk %d -> %d ops (%d candidates): %s\n",
					info.FromOps, info.ToOps, info.Candidates, litmus.FormatProgram(min.Threads))
			}
			// Re-check the minimized program to get its violation
			// record (allowed set and replay spec match min, not prog).
			mrep, err := difftest.CheckModel(ctx, min, model, cfg)
			if err != nil {
				fatal(err)
			}
			if mrep.OK() {
				fatal(fmt.Errorf("difftest: shrunk program no longer violates (shrinker bug)"))
			}
			if *bundleDir != "" {
				var origThreads = prog.Threads
				if *noShrink {
					origThreads = nil
				}
				b := difftest.NewBundle(min, origThreads, mrep, &gen, cfg)
				path, err := b.Write(*bundleDir)
				if err != nil {
					fatal(err)
				}
				bundles++
				fmt.Printf("     bundle: %s\n", path)
			}
		}
	}

	fmt.Printf("difftest: %d programs x %d models x %d runs", checked, len(models), *runs)
	if mut != consistency.MutNone {
		fmt.Printf(" (mutation %s)", mut)
	}
	if violations == 0 {
		fmt.Println(": no discrepancies")
	} else {
		fmt.Printf(": %d violation(s)", violations)
		if bundles > 0 {
			fmt.Printf(", %d bundle(s) in %s", bundles, *bundleDir)
		}
		fmt.Println()
	}
	if violations > 0 {
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "difftest: interrupted")
		os.Exit(130)
	}
}

func replay(ctx context.Context, path string) error {
	b, err := difftest.LoadBundle(path)
	if err != nil {
		return err
	}
	fmt.Printf("bundle %s: model %s", path, b.Model)
	if b.Mutate != "" {
		fmt.Printf(" (mutation %s)", b.Mutate)
	}
	fmt.Printf("\n  program: %s\n  recorded: %q (seed %d)\n", b.Text, b.Observed, b.ViolationSeed)
	res, err := difftest.ReplayBundle(ctx, b)
	if err != nil {
		return err
	}
	fmt.Printf("  replayed: %q  reproduced=%t still-forbidden=%t\n", res.Key, res.Reproduced, res.StillForbidden)
	if !res.OK() {
		return fmt.Errorf("bundle did not replay to its recorded verdict")
	}
	fmt.Println("  REPRODUCED")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "difftest:", strings.TrimPrefix(err.Error(), "difftest: "))
	os.Exit(1)
}
