package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// tally accumulates the output checks of every pass of a run.
type tally struct {
	attempted, failed int
	digest            string
	firstFailure      string
}

// add counts a pass. Identical inputs must give identical outputs, so
// a pass whose digest differs from the first pass's is one more failed
// operation, at any seed.
func (t *tally) add(r passResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	if t.firstFailure == "" {
		t.firstFailure = r.firstFailure
	}
	switch {
	case t.digest == "":
		t.digest = r.digest
	case t.digest != r.digest:
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = "a pass produced outputs that differ from the first pass's"
		}
	}
}

// timedPass runs one pass and returns its wall time in seconds.
func timedPass(p passer, tr *tracer, t *tally) (float64, passResult, error) {
	t0 := time.Now()
	r, err := p.pass(tr)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, r, err
	}
	t.add(r)
	return wall, r, nil
}

// passesFor runs passes for about the given seconds, at least min of
// them, stopping where one more pass would overshoot by more than it
// undershoots.
func passesFor(seconds float64, min int, one func() (float64, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for {
		if len(walls) >= min && time.Since(start).Seconds()+median(walls)/2 >= seconds {
			return walls, nil
		}
		w, err := one()
		if err != nil {
			return nil, err
		}
		walls = append(walls, w)
	}
}

// measure runs one workload in this process, which started at start,
// and returns its result line, printing a readable account to w on the
// way.
func measure(o options, def workloadDef, bf *benchmarkFile, start time.Time, w io.Writer) (*resultLine, error) {
	warmups, minTimed := def.warmups, 3
	if o.smoke {
		warmups, minTimed, o.seconds = 1, 2, 0
	}
	var t tally

	// Set-up, from process start to the first timed pass: load the
	// golden corpus, generate the inputs, make the state directory, and
	// run the workload's fixed number of warm-up passes. It is one total,
	// so whatever a process pays once (package initialisation, tables
	// built on first use) is in it.
	p, err := def.prepare(o)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer p.close()
	for i := 0; i < warmups; i++ {
		if _, _, err := timedPass(p, nil, &t); err != nil {
			return nil, fmt.Errorf("%s: warm-up pass: %w", def.name, err)
		}
	}
	setup := time.Since(start).Seconds()

	values := make(map[string]float64)
	var specs []metricSpec
	fmt.Fprintf(w, "%s\n", def.name)
	printEnv(w, o, false)
	if o.trace {
		specs = bf.PerLayer
		if err := measureLayers(o, def, p, &t, values, w); err != nil {
			return nil, err
		}
	} else {
		specs = bf.EndToEnd
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		walls, err := passesFor(o.seconds, minTimed, func() (float64, error) {
			wall, _, err := timedPass(p, nil, &t)
			return wall, err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: timed pass: %w", def.name, err)
		}
		runtime.ReadMemStats(&after)
		values["wall_s"] = median(walls)
		values["setup_s"] = setup
		values["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(walls)) / 1e6

		q1, q3 := quartiles(walls)
		fmt.Fprintf(w, "  passes      %d warm-up + %d timed, %.1f s timed\n", warmups, len(walls), sum(walls))
		fmt.Fprintf(w, "  pass wall   median %.4f s, quartiles %.4f-%.4f s (IQR %.1f%% of median)", median(walls), q1, q3, 100*iqrFrac(walls))
		if pct, v, ok := tailPercentile(walls); ok {
			fmt.Fprintf(w, ", p%.0f %.4f s", pct, v)
		}
		fmt.Fprintf(w, "\n  pass walls  %s s\n", formatAll(walls))
		fmt.Fprintf(w, "  set-up      %.3f s from process start to the first timed pass\n", setup)
	}

	line := &resultLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]measured, len(specs))}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: BENCHMARK.json lists metric %q, which this run does not measure", def.name, m.Name)
		}
		line.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", m.Name, v, m.Unit, prediction(m.Name))
	}
	fmt.Fprintf(w, "  operations  %d attempted, %d failed (fail_frac %.6f)\n", t.attempted, t.failed, float64(t.failed)/float64(t.attempted))
	if t.failed > 0 {
		fmt.Fprintf(w, "  FAILED      first failure: %s\n", t.firstFailure)
	}
	fmt.Fprintf(w, "  elapsed     %.1f s\n", time.Since(start).Seconds())
	return line, nil
}

// prediction renders a per-layer metric's entry of layerMoves.
func prediction(name string) string {
	mv := layerMoves[name]
	if len(mv.metrics) == 0 {
		return ""
	}
	return "  -> " + strings.Join(mv.metrics, ", ") + " on " + strings.Join(mv.workloads, ", ")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func formatAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// measureLayers is the traced run: a few untraced passes for
// reference, traced passes, then the fixed probes. It fills values
// with every per-layer metric.
func measureLayers(o options, def workloadDef, p passer, t *tally, values map[string]float64, w io.Writer) error {
	minPlain := 3
	if o.smoke {
		minPlain = 1
	}
	plain, err := passesFor(o.seconds/4, minPlain, func() (float64, error) {
		wall, _, err := timedPass(p, nil, t)
		return wall, err
	})
	if err != nil {
		return fmt.Errorf("%s: untraced pass: %w", def.name, err)
	}

	tr := newTracer()
	var last passResult
	traced, err := passesFor(o.seconds/4, 1, func() (float64, error) {
		tr.pass++
		wall, r, err := timedPass(p, tr, t)
		last = r
		return wall, err
	})
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", def.name, err)
	}
	path := filepath.Join(o.out, "trace-"+def.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "  passes      %d untraced (median %.4f s), %d traced (median %.4f s); %d spans in %s\n",
		len(plain), median(plain), len(traced), median(traced), len(tr.spans), path)

	passes := float64(len(traced))
	self, dur := tr.selfTimes(), tr.durations()
	// Time spent mirroring the production path for attribution is not
	// part of the pass being attributed.
	mirror := dur["bench.replay"]
	if b := dur["bench.baseline"]; b > 0 {
		mirror = b
	}
	values["bench.trace_overhead_frac"] = (sum(traced)-mirror)/passes/median(plain) - 1
	values["bench.pass_iqr_frac"] = iqrFrac(plain)

	// Shares of the traced pass's self time, the production-path spans
	// that the replay mirrors left out so nothing counts twice.
	var total float64
	for name, s := range self {
		if name != "experiments.run" {
			total += s
		}
	}
	for metric, prefix := range layerShares {
		var s float64
		for name, v := range self {
			if name == prefix || strings.HasPrefix(name, prefix+".") {
				s += v
			}
		}
		values[metric] = s / total
	}
	values["experiments.runner_overhead_share"] = 0
	if run := dur["experiments.run"]; run > 0 {
		values["experiments.runner_overhead_share"] = 1 - dur["bench.replay"]/run
	}

	c := last.counts
	values["sim.events"] = float64(c.events)
	values["sim.events_per_kcycle"] = 1000 * frac(c.events, c.cycles)
	values["machine.sim_mcycles"] = float64(c.cycles) / 1e6
	values["cpu.instrs"] = float64(c.instrs)
	values["cpu.stall_frac"] = frac(c.stall, c.cpuCycles)
	values["cache.accesses"] = float64(c.accesses)
	values["cache.hit_rate"] = frac(c.hits, c.accesses)
	values["cache.inval_miss_frac"] = frac(c.invalMisses, c.accesses-c.hits)
	values["network.msgs"] = float64(c.msgs)
	values["network.retry_frac"] = frac(c.retries, c.msgs+c.retries)
	values["network.queue_delay_per_msg"] = frac(c.queueDelay, c.msgs)
	values["memory.requests"] = float64(c.memReqs)
	values["memory.invalidates"] = float64(c.memInvals)
	values["memory.queued_frac"] = frac(c.memQueued, c.memQueued+c.memBusy)
	values["memory.util_spread"] = 0
	if c.runs > 0 {
		values["memory.util_spread"] = c.utilSpread / float64(c.runs)
	}
	values["experiments.rc_gain_pct"] = last.extra["rc_gain_pct"]
	values["server.cold_overhead_frac"] = last.extra["cold_overhead_frac"]
	values["server.shed"] = last.extra["shed"]

	return runProbes(o, values)
}

// layerShares maps a per-layer share metric to the span-name prefix
// whose self time it sums.
var layerShares = map[string]string{
	"machine.run_share":        "machine.run",
	"machine.new_share":        "machine.new",
	"machine.checksum_share":   "machine.checksum",
	"workloads.build_share":    "workloads.build",
	"workloads.validate_share": "workloads.validate",
	"litmus.share":             "litmus",
	"difftest.share":           "difftest",
	"compare.share":            "compare",
	"server.cold_share":        "server.cold",
	"server.hit_share":         "server.hit",
	"server.lifecycle_share":   "server.lifecycle",
}
