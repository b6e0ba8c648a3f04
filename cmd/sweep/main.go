// sweep regenerates the paper's tables and figures.
//
// Usage:
//
//	sweep -all                       # every table and figure, scaled preset
//	sweep -exp f4,f9 -preset quick   # selected experiments
//	sweep -all -preset paper         # the original sizes (very slow)
//	sweep -all -out EXPERIMENTS.out  # also write the report to a file
//	sweep -all -j 4                  # run experiments on 4 workers
//	sweep -exp t2 -metrics-dir m/    # per-run cycle-attribution JSON
//	sweep -all -state runs/          # journal + checkpoints, crash-tolerant
//	sweep -all -state runs/ -resume  # continue an interrupted sweep
//	sweep -exp t2 -cpuprofile c.pprof -memprofile m.pprof  # profile the host
//
// Experiments: the ids of experiments.Experiments, in -all order, and
// scaling (the SC1-vs-RC gap from 16 up to 256 processors, -exp only).
//
// One Runner (and its memoization cache) is shared by every path —
// -md and -all/-exp together run shared baselines once, and -j spreads
// experiments over a bounded worker pool with output still printed in
// id order.
//
// With -state, every simulation run is journaled to DIR/journal.jsonl
// (one JSON line per run: running/done/failed, with the full result and
// its checksum), periodic machine snapshots land in DIR/ckpt/, and
// diagnostic dumps from failed or interrupted runs in DIR/dumps/.
// SIGINT/SIGTERM stops the sweep gracefully: in-flight machines write a
// final checkpoint, the journal records what finished, and the process
// exits nonzero; a second signal exits immediately. A later -resume
// replays the journal — completed runs are recalled, not re-simulated —
// and restores in-flight runs from their latest valid checkpoint.
// A failed experiment no longer aborts the sweep: remaining experiments
// run to completion and the process exits nonzero at the end. When every
// experiment has run — even if every one failed — the journal is
// finalized with a terminal sweep-end marker before the process exits;
// an interrupted sweep leaves the marker out, which is how -resume
// knows there is work left.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/hostprof"
	"memsim/internal/machine"
	"memsim/internal/metrics"
	"memsim/internal/robust"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		exp      = flag.String("exp", "", "comma-separated experiment ids ("+strings.Join(experiments.ExperimentIDs(), ",")+")")
		preset   = flag.String("preset", "scaled", "parameter preset: quick, scaled, paper")
		outF     = flag.String("out", "", "also write the report to this file")
		mdF      = flag.String("md", "", "write the full EXPERIMENTS.md-style report to this file")
		quiet    = flag.Bool("q", false, "suppress per-run progress")
		diagF    = flag.Bool("diag", false, "print the diagnostic dump if a run fails")
		jobs     = flag.Int("j", 1, "experiments run concurrently (0: one per CPU)")
		metDir   = flag.String("metrics-dir", "", "write one cycle-attribution JSON per fresh run into this directory")
		stateDir = flag.String("state", "", "journal + checkpoint directory for crash-tolerant sweeps")
		resume   = flag.Bool("resume", false, "replay the -state journal and continue an interrupted sweep")
		ckptEvry = flag.Uint64("ckpt-every", 2_000_000, "simulated cycles between machine checkpoints (with -state; 0: only on interruption)")
		timeout  = flag.Duration("timeout", 0, "wall-clock limit per simulation attempt (0: none)")
		retries  = flag.Int("retries", 0, "retry attempts for timed-out or stalled runs")
		backoff  = flag.Duration("backoff", time.Second, "wait before the first retry (doubles per attempt)")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile of the sweep to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a host allocation profile to this file when the sweep ends")
	)
	diag = diagF
	flag.Parse()

	params, err := experiments.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	if *resume && *stateDir == "" {
		fatal(errors.New("-resume requires -state"))
	}
	// Every id resolves before anything runs. scaling is not part of
	// -all: its 128/256-processor runs take minutes even at the quick
	// preset. Request it with -exp scaling.
	var exps []experiments.Experiment
	if *all {
		exps = experiments.Experiments
	} else if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.LookupExperiment(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	} else if *mdF == "" {
		flag.Usage()
		os.Exit(2)
	}
	stop, err := hostprof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	// The profiles end with the simulations, before reports are written
	// and before any exit path that skips deferred calls.
	stopProf := func() {
		if err := stop(); err != nil {
			complain(err)
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run
	// context (in-flight machines checkpoint and stop); a second signal
	// aborts immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "\nsweep: %v: stopping gracefully (checkpointing in-flight runs; repeat to abort)\n", s)
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "sweep: aborted")
		os.Exit(130)
	}()

	// One Runner serves every path below, so baselines shared between
	// the markdown report and the selected experiments are simulated
	// exactly once.
	r := experiments.NewRunner(params)
	r.BaseCtx = ctx
	r.Timeout = *timeout
	r.Retries = *retries
	r.Backoff = *backoff
	if !*quiet {
		r.Log = os.Stderr
	}
	if *metDir != "" {
		if err := os.MkdirAll(*metDir, 0o755); err != nil {
			fatal(err)
		}
		r.MetricsSink = metricsSink(*metDir)
	}

	var journal *experiments.Journal
	if *stateDir != "" {
		journalPath := filepath.Join(*stateDir, "journal.jsonl")
		if *resume {
			entries, err := experiments.ReplayJournal(journalPath)
			if err != nil {
				fatal(err)
			}
			if n := r.Seed(entries); !*quiet {
				fmt.Fprintf(os.Stderr, "sweep: resumed %d completed runs from %s\n", n, journalPath)
			}
		}
		var err error
		if journal, err = experiments.OpenJournal(journalPath); err != nil {
			fatal(err)
		}
		defer journal.Close()
		r.Ckpt = experiments.CheckpointPolicy{Dir: filepath.Join(*stateDir, "ckpt"), Every: *ckptEvry}
		dumpDir := filepath.Join(*stateDir, "dumps")
		r.OnStart = func(key string, spec experiments.RunSpec) {
			journal.Append(experiments.JournalEntry{Key: key, Spec: spec, Status: experiments.StatusRunning})
		}
		r.OnResult = func(key string, spec experiments.RunSpec, res machine.Result) {
			journal.Append(experiments.JournalEntry{
				Key: key, Spec: spec, Status: experiments.StatusDone,
				Checksum: res.Checksum(), Result: &res,
			})
		}
		r.OnFailure = func(key string, spec experiments.RunSpec, err error) {
			journal.Append(experiments.JournalEntry{Key: key, Spec: spec, Status: experiments.StatusFailed, Err: err.Error()})
			var se *robust.SimError
			if errors.As(err, &se) && se.Dump != "" {
				name := experiments.FileName(key) + ".dump"
				if werr := robust.WriteDump(filepath.Join(dumpDir, name), se.Dump); werr != nil {
					fmt.Fprintf(os.Stderr, "sweep: %v\n", werr)
				}
			}
		}
	}

	if *mdF != "" {
		f, err := os.Create(*mdF)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteMarkdown(f, r, time.Now()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", *mdF)
		if len(exps) == 0 {
			stopProf()
			return
		}
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(exps))

	// Run the experiments on a bounded worker pool; results land in a
	// slice indexed by position so output order stays deterministic. A
	// failed experiment is recorded and the rest continue.
	type outcome struct {
		body fmt.Stringer
		err  error
	}
	results := make([]outcome, len(exps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, e := range exps {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				results[i].err = fmt.Errorf("%s: %w", e.ID, ctx.Err())
				return
			}
			results[i].body, results[i].err = e.Run(r)
		}()
	}
	wg.Wait()
	stopProf()

	var report strings.Builder
	failed := 0
	for i, res := range results {
		if res.err != nil {
			failed++
			report.WriteString(fmt.Sprintf("experiment %s FAILED: %v\n\n", exps[i].ID, res.err))
			complain(res.err)
			continue
		}
		text := res.body.String()
		report.WriteString(text + "\n")
		fmt.Println(text)
	}
	if *outF != "" {
		if err := os.WriteFile(*outF, []byte(report.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	// Finalize the journal before deciding the exit status: os.Exit
	// skips deferred closes, and a sweep that ran every experiment —
	// even one where every experiment failed — must leave a complete
	// journal with its terminal marker. An interrupted sweep (ctx
	// canceled) deliberately does not Finish: the missing marker is
	// what tells -resume there is work left.
	if journal != nil {
		if ctx.Err() == nil {
			if err := journal.Finish(failed, len(exps)); err != nil {
				complain(err)
			}
		}
		if err := journal.Close(); err != nil {
			complain(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d experiments failed\n", failed, len(exps))
		if ctx.Err() != nil && *stateDir != "" {
			fmt.Fprintf(os.Stderr, "sweep: interrupted; rerun with -state %s -resume to continue\n", *stateDir)
		}
		os.Exit(1)
	}
}

// metricsSink writes one cycle-attribution JSON per fresh run into
// dir, named after the run's description.
func metricsSink(dir string) func(string, machine.Result, *metrics.Collector) {
	var mu sync.Mutex
	return func(desc string, res machine.Result, mc *metrics.Collector) {
		name := experiments.FileName(desc) + ".json"
		rep := mc.Report(uint64(res.Cycles))
		f, err := os.Create(filepath.Join(dir, name))
		if err == nil {
			if werr := rep.WriteJSON(f); werr == nil {
				err = f.Close()
			} else {
				f.Close()
				err = werr
			}
		}
		if err != nil {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "sweep: metrics %s: %v\n", desc, err)
			mu.Unlock()
		}
	}
}

// diag mirrors the -diag flag for error reporting (set before any run
// starts).
var diag *bool

// complain prints the structured error text — and, under -diag, the
// machine diagnostic dump a SimError carries. Simulator failures never
// surface as stack traces.
func complain(err error) {
	var se *robust.SimError
	if diag != nil && *diag && errors.As(err, &se) && se.Dump != "" {
		fmt.Fprint(os.Stderr, se.Dump)
	}
	fmt.Fprintln(os.Stderr, "sweep:", err)
}

// fatal reports a configuration-level error and exits non-zero.
func fatal(err error) {
	complain(err)
	os.Exit(1)
}
