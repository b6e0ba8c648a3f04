// mcsim runs one benchmark on one simulated machine configuration and
// prints the measurements.
//
// Usage:
//
//	mcsim -bench gauss -model WO1 -procs 16 -cache 16384 -line 16
//	mcsim -bench relax -sched miss-first -model SC1
//	mcsim -bench qsort -n 20000 -model RC -v
//
// Observability (package metrics):
//
//	mcsim -bench qsort -model WO1 -metrics -          # stall/latency report as JSON on stdout
//	mcsim -bench gauss -hist                          # stall table + latency histograms, text
//	mcsim -bench gauss -metrics m.json -metrics-csv m.csv -chrome-trace t.json
//
// Robustness and debugging:
//
//	mcsim -bench gauss -stall-cycles 200000 -check-every 5000 -diag
//	mcsim -bench qsort -fault-prob 0.05 -fault-delay 12 -fault-seed 7
//
// Checkpoint/restore (the run must use identical configuration flags):
//
//	mcsim -bench gauss -ckpt g.mcsp -ckpt-every 1000000   # periodic snapshots
//	mcsim -bench gauss -restore g.mcsp -ckpt g.mcsp       # continue a run
//
// Host profiling (where the simulator's own time and memory go):
//
//	mcsim -bench psim -procs 64 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// SIGINT/SIGTERM stops the run gracefully: with -ckpt a final snapshot
// is written, the diagnostic dump is available under -diag, and mcsim
// exits non-zero; a second signal aborts immediately.
//
// On any failure mcsim exits non-zero with the structured error text;
// -diag additionally prints the machine's diagnostic dump (processor,
// MSHR, network and directory state at the failure cycle).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memsim"
	"memsim/internal/hostprof"
	"memsim/internal/machine"
	"memsim/internal/robust"
	"memsim/internal/trace"
)

func main() {
	var (
		bench = flag.String("bench", "gauss", "benchmark: gauss, qsort, relax, psim")
		model = flag.String("model", "SC1",
			"consistency model: "+strings.Join(memsim.ModelNames(), ", "))
		procs  = flag.Int("procs", 16, "number of processors")
		cache  = flag.Int("cache", 16<<10, "cache size in bytes")
		line   = flag.Int("line", 16, "cache line size in bytes")
		delay  = flag.Int("delay", 4, "load/branch delay in cycles")
		n      = flag.Int("n", 0, "problem size (0: benchmark default)")
		iters  = flag.Int("iters", 2, "relax iterations")
		sched  = flag.String("sched", "default", "relax schedule: default, miss-first, miss-last")
		seed   = flag.Int64("seed", 1992, "workload seed")
		vflag  = flag.Bool("v", false, "print per-processor detail")
		noskip = flag.Bool("no-idle-skip", false, "disable spin fast-forward (A/B timing verification; never changes results)")
		trc    = flag.Int("trace", 0, "dump the last N coherence-protocol events")

		metricsF = flag.String("metrics", "", "write the cycle-attribution report as JSON to this file (\"-\": stdout)")
		csvF     = flag.String("metrics-csv", "", "write the cycle-attribution report as CSV to this file")
		chromeF  = flag.String("chrome-trace", "", "write a Chrome trace-event timeline (Perfetto-loadable) to this file")
		histF    = flag.Bool("hist", false, "print the stall breakdown and latency histograms as text")
		epochF   = flag.Uint64("epoch", 0, "utilization sampling epoch in cycles (0: default 4096)")

		ckptF     = flag.String("ckpt", "", "write machine snapshots to this file (periodic with -ckpt-every; always on interruption)")
		ckptEvery = flag.Uint64("ckpt-every", 0, "simulated cycles between periodic snapshots (0: only on interruption)")
		restoreF  = flag.String("restore", "", "restore the machine from this snapshot file and continue the run")

		diag       = flag.Bool("diag", false, "print a full diagnostic dump if the run fails")
		stall      = flag.Int("stall-cycles", 0, "fail if no instruction retires for N cycles (0: off)")
		checkEvery = flag.Int("check-every", 0, "run the coherence invariant checker every N cycles (0: off)")
		faultProb  = flag.Float64("fault-prob", 0, "network fault injection: per-hop delay probability (0: off)")
		faultDelay = flag.Int("fault-delay", 8, "network fault injection: max extra cycles per delayed hop")
		faultSeed  = flag.Int64("fault-seed", 1, "network fault injection seed")

		cpuProf = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a host allocation profile to this file when the run ends")
	)
	flag.Parse()

	m, err := memsim.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	w, err := buildWorkload(*bench, *procs, *n, *iters, *sched, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := memsim.Config{
		Procs:       *procs,
		Model:       m,
		CacheSize:   *cache,
		LineSize:    *line,
		LoadDelay:   *delay,
		StallCycles: *stall,
		CheckEvery:  *checkEvery,
		NoSpinSkip:  *noskip,
	}
	if *faultProb > 0 {
		cfg.Faults = robust.Faults{Seed: *faultSeed, DelayProb: *faultProb, MaxExtraDelay: *faultDelay}
	}
	var rec *trace.Recorder
	if *trc > 0 {
		rec = trace.New(*trc)
	} else if *diag {
		// A small ring so failure dumps can show the trailing protocol
		// events even when -trace was not requested.
		rec = trace.New(64)
		rec.EnableOnly(trace.ReqSend, trace.ReqRecv, trace.RespSend, trace.RespRecv)
	}
	var mc *memsim.Metrics
	if *metricsF != "" || *csvF != "" || *chromeF != "" || *histF {
		mc = memsim.NewMetrics()
		if *epochF > 0 {
			mc.SetEpoch(*epochF)
		}
	}
	// Graceful interruption: the first SIGINT/SIGTERM cancels the run
	// (a final snapshot is written when -ckpt is set); a second signal
	// aborts immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "\nmcsim: %v: stopping gracefully (repeat to abort)\n", s)
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "mcsim: aborted")
		os.Exit(130)
	}()

	stopProf, err := hostprof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	wallStart := time.Now()
	res, syncProg, err := run(ctx, cfg, w, rec, mc, *ckptF, *ckptEvery, *restoreF)
	wall := time.Since(wallStart).Seconds()
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", perr)
	}
	if err != nil {
		var se *robust.SimError
		if *diag && errors.As(err, &se) && se.Dump != "" {
			fmt.Fprint(os.Stderr, se.Dump)
		}
		if *ckptF != "" && errors.As(err, &se) && se.Kind == robust.Canceled {
			fmt.Fprintf(os.Stderr, "mcsim: snapshot saved to %s; rerun with -restore %s to continue\n", *ckptF, *ckptF)
		}
		fatal(err)
	}

	// Host-side throughput goes to stderr so stdout stays byte-stable
	// across hosts and across -no-idle-skip A/B comparisons.
	if wall > 0 {
		fmt.Fprintf(os.Stderr, "mcsim: %d events in %.2fs host wall (%.1f Mevents/s, %.1f Mcycles/s)\n",
			res.Events, wall, float64(res.Events)/wall/1e6, float64(res.Cycles)/wall/1e6)
	}
	fmt.Printf("%s on %s: procs=%d cache=%dK line=%dB delay=%d\n",
		w.Name, m, *procs, *cache>>10, *line, *delay)
	fmt.Printf("  run time        %12d cycles\n", res.Cycles)
	fmt.Printf("  instructions    %12d\n", res.Instructions())
	fmt.Printf("  memory wait     %12d cycles  (MWPI %.3f)\n", res.MemoryWaitCycles(), res.MWPI())
	fmt.Printf("  shared reads    %12d  (hit %5.1f%%)\n", res.TotalReads(), 100*res.ReadHitRate())
	fmt.Printf("  shared writes   %12d  (hit %5.1f%%)\n", res.TotalWrites(), 100*res.WriteHitRate())
	fmt.Printf("  overall hits    %17.1f%%\n", 100*res.HitRate())
	fmt.Printf("  invalidation miss fraction %6.1f%%\n", 100*res.InvalidationMissFraction())
	fmt.Printf("  sync operations %12d  (program sync instrs %d)\n", res.SyncOps(), syncProg)
	fmt.Printf("  module util spread %9.2fx\n", res.ModuleUtilizationSpread())
	fmt.Printf("  request net: %d msgs, %d bypasses; response net: %d msgs\n",
		res.ReqNet.Messages, res.ReqNet.Bypasses, res.RespNet.Messages)

	if *trc > 0 {
		fmt.Printf("\nlast %d of %d protocol events:\n%s", len(rec.Events()), rec.Total(), rec.Dump())
	}
	if rq, rs := res.ReqNet, res.RespNet; rq.FaultDelays+rs.FaultDelays > 0 {
		fmt.Printf("  fault injection: %d delayed hops, %d extra cycles\n",
			rq.FaultDelays+rs.FaultDelays, rq.FaultCycles+rs.FaultCycles)
	}

	if *vflag {
		fmt.Println("  per processor:")
		for i, c := range res.CPUs {
			fmt.Printf("   cpu%-2d instr=%-9d sync=%-7d stalls: interlock=%d loadwait=%d outstanding=%d conflict=%d drain=%d sync=%d blocking=%d release=%d\n",
				i, c.Instructions, c.SyncOps,
				c.StallInterlock, c.StallLoadWait, c.StallOutstanding, c.StallConflict,
				c.StallDrain, c.StallSync, c.StallBlocking, c.StallRelease)
		}
	}

	if mc != nil {
		if err := emitMetrics(mc, res, *metricsF, *csvF, *chromeF, *histF); err != nil {
			fatal(err)
		}
	}
}

// emitMetrics writes the requested exporter outputs from one collector.
func emitMetrics(mc *memsim.Metrics, res memsim.Result, jsonF, csvF, chromeF string, hist bool) error {
	rep := mc.Report(uint64(res.Cycles))
	if hist {
		fmt.Println()
		rep.WriteText(os.Stdout)
	}
	if jsonF == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if jsonF != "" {
		if err := writeTo(jsonF, rep.WriteJSON); err != nil {
			return err
		}
	}
	if csvF != "" {
		if err := writeTo(csvF, rep.WriteCSV); err != nil {
			return err
		}
	}
	if chromeF != "" {
		if err := writeTo(chromeF, mc.WriteChromeTrace); err != nil {
			return err
		}
	}
	return nil
}

// writeTo creates path and streams one exporter into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes the workload, optionally with a protocol tracer, a
// metrics collector, checkpointing, and a snapshot to restore from.
func run(ctx context.Context, cfg memsim.Config, w memsim.Workload, rec *trace.Recorder, mc *memsim.Metrics,
	ckpt string, ckptEvery uint64, restore string) (memsim.Result, uint64, error) {
	if cfg.Procs == 0 {
		cfg.Procs = w.Procs
	}
	if cfg.SharedWords == 0 {
		cfg.SharedWords = w.SharedWords
	}
	m, err := machine.New(cfg, w.Programs)
	if err != nil {
		return memsim.Result{}, 0, err
	}
	if rec != nil {
		m.AttachTracer(rec)
	}
	m.AttachMetrics(mc)
	if restore != "" {
		snap, err := machine.ReadSnapshotFile(restore)
		if err != nil {
			return memsim.Result{}, 0, err
		}
		if err := m.Restore(snap); err != nil {
			return memsim.Result{}, 0, err
		}
		fmt.Fprintf(os.Stderr, "mcsim: restored %s at cycle %d\n", restore, m.Eng.Now())
	} else if w.Setup != nil {
		w.Setup(m.Shared())
	}
	rc := machine.RunControl{Ctx: ctx}
	if ckpt != "" {
		rc.CheckpointEvery = ckptEvery
		rc.Checkpoint = func() error {
			snap, err := m.Snapshot()
			if err != nil {
				return err
			}
			return machine.WriteSnapshotFile(ckpt, snap)
		}
	}
	res, err := m.RunControlled(rc)
	if err != nil {
		return res, m.SyncInstructions(), err
	}
	if w.Validate != nil {
		if err := w.Validate(m.Shared()); err != nil {
			return res, m.SyncInstructions(), err
		}
	}
	return res, m.SyncInstructions(), nil
}

func buildWorkload(bench string, procs, n, iters int, sched string, seed int64) (memsim.Workload, error) {
	switch bench {
	case "gauss":
		if n == 0 {
			n = 96
			if procs > n {
				n = procs // at least one matrix row per processor
			}
		}
		return memsim.GaussWorkload(procs, n, seed), nil
	case "qsort":
		if n == 0 {
			n = 6000
		}
		return memsim.QsortWorkload(procs, n, seed), nil
	case "relax":
		if n == 0 {
			n = 64
			if procs > n {
				n = procs // at least one grid row per processor
			}
		}
		s, err := parseSched(sched)
		if err != nil {
			return memsim.Workload{}, err
		}
		return memsim.RelaxWorkload(procs, n, iters, s, seed), nil
	case "psim":
		if n == 0 {
			n = 48
		}
		// Scale the simulated network with the machine (four ports per
		// processor once the machine outgrows the historical 64-port
		// default) so every processor injects and services packets.
		ports := 64
		if 4*procs > ports {
			ports = 4 * procs
		}
		return memsim.PsimWorkload(procs, ports, n, seed), nil
	}
	return memsim.Workload{}, fmt.Errorf("unknown benchmark %q", bench)
}

func parseSched(s string) (memsim.RelaxSchedule, error) {
	switch s {
	case "default":
		return memsim.RelaxDefault, nil
	case "miss-first":
		return memsim.RelaxMissFirst, nil
	case "miss-last":
		return memsim.RelaxMissLast, nil
	}
	return 0, fmt.Errorf("unknown schedule %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	os.Exit(1)
}
