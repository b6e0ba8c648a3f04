package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// printEnv records where the numbers below it were taken.
func printEnv(w io.Writer, o options, withCommit bool) {
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, cpu %q, state dir on %s, seed %d",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), filesystemOf(o.out), o.seed)
	if withCommit {
		commit := "unknown"
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = repoRoot
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
		fmt.Fprintf(w, ", commit %s", commit)
	}
	fmt.Fprintln(w)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type holding dir: the mount with
// the longest mount point that prefixes it.
func filesystemOf(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if mp := f[1]; len(mp) > len(best) && (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// runChild runs one workload in a child process of this binary and
// returns its result line, copying what it prints before that to w.
func runChild(o options, name string, w io.Writer) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // Output waits for the child to end
	if err != nil {
		w.Write(out)
		return nil, fmt.Errorf("%s: child process: %w", name, err)
	}
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	w.Write(out[:i+1])
	var line resultLine
	if err := json.Unmarshal(out[i+1:], &line); err != nil {
		return nil, fmt.Errorf("%s: child's last line is not a result: %w", name, err)
	}
	return &line, nil
}

// runSuite runs every workload, one child process each, in the fixed
// order, and returns their result lines by workload name.
func runSuite(o options, bf *benchmarkFile, w io.Writer) (map[string]*resultLine, error) {
	start := time.Now()
	printEnv(w, o, true)
	lines := make(map[string]*resultLine)
	failed := 0
	for _, def := range workloadDefs {
		line, err := runChild(o, def.name, w)
		if err != nil {
			return nil, err
		}
		lines[def.name] = line
		failed += line.Failed
	}
	fmt.Fprintf(w, "suite: %d workloads in %.1f s\n", len(lines), time.Since(start).Seconds())
	if failed > 0 {
		return lines, fmt.Errorf("%d %w", failed, errFailedOps)
	}
	return lines, nil
}

// aaReport is what -aa writes to bench/out/aa.json.
type aaReport struct {
	Runs    int     `json:"runs_per_side"`
	Seconds float64 `json:"seconds"`
	Rows    []aaRow `json:"rows"`
	Counts  string  `json:"exact_counts"`
}

type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"` // IQR as a share of the median
	SpreadB  float64 `json:"spread_b"`
	Shift    float64 `json:"shift"` // (B - A) / A; positive is worse
	OK       bool    `json:"ok"`
}

// aaRuns is the number of runs per side and workload of -aa, each on
// its own seed: the fewest whose quartiles say anything.
const aaRuns = 10

// runAA does what the acceptance driver does: each workload aaRuns
// times on as many seeds, the whole thing twice. It fails if a spread
// (set-up time apart) or the shift between the two medians exceeds the
// metric's bound, or if the traced runs' exact counts disagree.
func runAA(o options, bf *benchmarkFile) error {
	start := time.Now()
	printEnv(os.Stdout, o, true)
	// samples[side][workload][metric] lists the aaRuns readings.
	var samples [2]map[string]map[string][]float64
	var counts [2]map[string]map[string]float64
	for side := range samples {
		samples[side] = make(map[string]map[string][]float64)
		counts[side] = make(map[string]map[string]float64)
		for _, def := range workloadDefs {
			samples[side][def.name] = make(map[string][]float64)
			for i := 0; i < aaRuns; i++ {
				run := o
				run.seed, run.trace = o.seed+int64(i), false
				line, err := runChild(run, def.name, io.Discard)
				if err != nil {
					return err
				}
				if line.Failed > 0 {
					return fmt.Errorf("%s at seed %d: %d %w", def.name, run.seed, line.Failed, errFailedOps)
				}
				for name, m := range line.Metrics {
					samples[side][def.name][name] = append(samples[side][def.name][name], m.Value)
				}
				fmt.Printf("side %c  %-12s seed %d  wall_s %.4f  (%.0f s elapsed)\n",
					'A'+side, def.name, run.seed, line.Metrics["wall_s"].Value, time.Since(start).Seconds())
			}
			traced := o
			traced.trace = true
			line, err := runChild(traced, def.name, io.Discard)
			if err != nil {
				return err
			}
			counts[side][def.name] = make(map[string]float64)
			for _, m := range bf.PerLayer {
				if m.Unit == "count" {
					counts[side][def.name][m.Name] = line.Metrics[m.Name].Value
				}
			}
		}
	}

	rep := aaReport{Runs: aaRuns, Seconds: o.seconds, Counts: "agree"}
	bad := 0
	fmt.Printf("\n%-12s %-12s %6s %12s %12s %8s %8s %8s\n", "workload", "metric", "bound", "median A", "median B", "IQR A", "IQR B", "shift")
	for _, def := range workloadDefs {
		for _, m := range bf.EndToEnd {
			a, b := samples[0][def.name][m.Name], samples[1][def.name][m.Name]
			row := aaRow{Workload: def.name, Metric: m.Name, Bound: *m.Bound,
				MedianA: median(a), MedianB: median(b), SpreadA: iqrFrac(a), SpreadB: iqrFrac(b)}
			row.Shift = (row.MedianB - row.MedianA) / row.MedianA
			if m.Better == "higher" {
				row.Shift = -row.Shift
			}
			row.OK = row.Shift <= row.Bound && (m.Name == "setup_s" || (row.SpreadA <= row.Bound && row.SpreadB <= row.Bound))
			verdict := ""
			if !row.OK {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-12s %-12s %6.3f %12.5g %12.5g %7.2f%% %7.2f%% %+7.2f%%%s\n", row.Workload, row.Metric, row.Bound,
				row.MedianA, row.MedianB, 100*row.SpreadA, 100*row.SpreadB, 100*row.Shift, verdict)
			rep.Rows = append(rep.Rows, row)
		}
		for name, v := range counts[0][def.name] {
			if counts[1][def.name][name] != v {
				fmt.Printf("%-12s %s: %.0f on side A, %.0f on side B: an exact count differs\n", def.name, name, v, counts[1][def.name][name])
				rep.Counts = "differ"
				bad++
			}
		}
	}
	fmt.Printf("exact counts of the traced runs: %s\n", rep.Counts)
	fmt.Printf("a/a: %d runs in %.0f s\n", 2*len(workloadDefs)*(aaRuns+1), time.Since(start).Seconds())

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "aa.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("a/a: %d comparisons outside their bounds", bad)
	}
	return nil
}
