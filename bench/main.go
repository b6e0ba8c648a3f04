// Command bench is the repository's one performance harness: four
// workloads measured end to end from outside the simulator's layers,
// and a traced run that attributes each workload's time to those
// layers. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory explains them.
//
//	go run ./bench                     every workload, one child process each
//	go run ./bench -workload psim-64   one workload, in this process
//	go run ./bench -trace 1            per-layer metrics and Chrome traces
//	go run ./bench -aa                 repeat-run spreads against the bounds
//	go run ./bench -smoke              a few seconds, for tests
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var processStart = time.Now()

// repoRoot is the directory holding go.mod, BENCHMARK.json and
// testdata/; the harness may be started from it or from below it.
var repoRoot = findRoot()

func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	// out is where traces, the service's state directories and the a/a
	// report go. The command uses bench/out, inside the checkout so that
	// the state directory's filesystem is the checkout's, and ignored by
	// git; the tests use a temporary directory.
	out string
}

// passer is one prepared workload: identical inputs, identical work
// on every pass. A nil tracer means an untraced pass.
type passer interface {
	pass(tr *tracer) (passResult, error)
	close()
}

// workloadDef is one workload. warmups is the fixed number of passes
// that set-up runs before the timed ones, about five seconds of them.
type workloadDef struct {
	name    string
	warmups int
	prepare func(o options) (passer, error)
}

// workloadDefs is in the fixed order the suite runs them.
var workloadDefs = []workloadDef{
	{"paper-grid", 5, preparePaperGrid},
	{"psim-64", 2, preparePsim64},
	{"conformance", 3, prepareConformance},
	{"service-mix", 3, prepareService},
}

// metricSpec is one entry of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// measured is one metric value in the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a workload run prints.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	// Two threads, as many as the sandbox has cores, whatever the host
	// reports: the worker pools below are sized to match.
	runtime.GOMAXPROCS(2)

	var o options
	var trace int
	var aa bool
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "input seed; the golden corpora are pinned at the default")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds of timed passes per workload (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "one warm-up and two timed passes of shrunken workloads")
	flag.BoolVar(&aa, "aa", false, "run every workload on ten seeds, twice, and hold spreads and shifts to the bounds")
	flag.Parse()
	o.trace = trace != 0
	o.out = filepath.Join(repoRoot, "bench", "out")

	if err := run(o, aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedOps ends a suite in which operations failed their output
// check.
var errFailedOps = errors.New("operations failed their output check")

func run(o options, aa bool) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	switch {
	case aa:
		return runAA(o, bf)
	case o.workload == "":
		_, err := runSuite(o, bf, os.Stdout)
		return err
	}
	for _, def := range workloadDefs {
		if def.name == o.workload {
			line, err := measure(o, def, bf, processStart, os.Stdout)
			if err != nil {
				return err
			}
			out, err := json.Marshal(line)
			if err != nil {
				return err
			}
			// The exit code stays 0 with failed operations: the line
			// itself says correct=false, and its reader needs it whole.
			fmt.Println(string(out))
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}
