// check is the memory-model checker. The paper's system types differ
// only in which program-order edges the hardware may relax; check asks
// whether the simulated hardware keeps each model's contract three
// ways, all through one spec-derived allowed-outcome engine and one
// seeded check loop (litmus.Run):
//
//	check litmus    the hand-picked litmus library under perturbed seeds
//	check diff      random concurrent programs; violations are shrunk
//	                to 1-minimal reproducers and written as bundles
//	check compare   synthesized witnesses that tell two models apart,
//	                and the zoo's strictness lattice
//	check replay    re-execute the violations recorded in verdict files
//	check list      describe the litmus library and the model zoo
//
// Usage:
//
//	check litmus                                  # every test under every model
//	check litmus -test sb -models WO1 -runs 1000  # one pair, deeper
//	check litmus -mutate sc-overlap -json > v.json   # record a seeded defect
//	check diff -programs 500 -runs 50 -seed 7     # deeper fuzz
//	check diff -for 5m -programs 0                # time-boxed soak
//	check diff -mutate wb-no-drain -bundle-dir repros/
//	check replay v.json repros/*.json             # the one replay
//	check compare -models SC1,TSO,PSO -verify -runs 300
//	check compare -witness-dir wit/ && check compare -replay wit/TSO-not-SC1.json
//
// The shared flags mean the same thing wherever they exist: -models
// selects models, -runs is perturbed hardware runs per checked pair,
// -seed the base seed, -mutate a seeded hardware defect (the
// self-check), -json machine-readable output.
//
// A recorded verdict has one format, the litmus.Report that `litmus
// -json` streams; a `diff -bundle-dir` bundle is such a report with
// the program attached. check replay reads both and has one exit
// convention: 0 iff every recorded violation reproduces its outcome
// bit-exactly and the current engine still forbids that outcome. A
// verdict file is a regression fixture, and a fixed defect replaying
// CLEAN is the signal to retire it.
//
// Exit status: 0 clean, 1 a violation (or an error), 2 usage, 130
// interrupted. SIGINT/SIGTERM stops a sweep cleanly: the in-flight
// simulation is canceled at its next context poll and what completed
// is reported in full.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"memsim/internal/consistency"
)

var commands = []struct {
	name string
	run  func(context.Context, *cli, []string) error
	doc  string
}{
	{"litmus", runLitmus, "run the litmus library under every model with perturbed seeds"},
	{"diff", runDiff, "fuzz the models with random programs; shrink and bundle violations"},
	{"compare", runCompare, "synthesize witnesses between models and print the strictness lattice"},
	{"replay", runReplay, "FILE...: re-execute recorded violations; exit 0 iff every one reproduces its outcome and the engine still forbids it"},
	{"list", runList, "describe the litmus library and the model zoo"},
}

// cli is the two streams every subcommand writes to. A subcommand runs
// under the signal context and returns an error for run to report and
// turn into the exit status.
type cli struct {
	out    io.Writer
	stderr io.Writer
}

// errUsage asks run for the usage text and exit status 2; errFlags is
// the same status after the flag package has reported a bad flag and
// listed the valid ones.
var (
	errUsage = errors.New("usage: check <command> [flags]   (check <command> -h lists a command's flags)")
	errFlags = errors.New("bad flags")
)

// errViolations is a sweep that found outcomes outside an allowed set;
// it is exit status 1 even when the sweep was also interrupted.
var errViolations = errors.New("outside the allowed set")

// flags returns a subcommand's flag set with -models registered: it
// selects models wherever it exists.
func (c *cli) flags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("check "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs, fs.String("models", "all",
		fmt.Sprintf("comma-separated models (%s), or all", strings.Join(consistency.ModelNames(), ",")))
}

// mutateUsage describes -mutate, the same flag in litmus and diff.
const mutateUsage = "seed a spec defect (sc-overlap, wb-no-drain) for the self-check"

// parse parses a subcommand's arguments.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return errFlags
	}
	return err
}

// json writes one indented JSON value to stdout.
func (c *cli) json(v any) error {
	enc := json.NewEncoder(c.out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it dispatches args to a subcommand
// and owns the exit-status policy.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := errUsage
	if len(args) > 0 {
		err = fmt.Errorf("check: unknown command %q\n%w", args[0], errUsage)
		for _, cmd := range commands {
			if cmd.name == args[0] {
				err = cmd.run(ctx, &cli{out: stdout, stderr: stderr}, args[1:])
				break
			}
		}
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	case errors.Is(err, errUsage):
		fmt.Fprintln(stderr, err)
		for _, cmd := range commands {
			fmt.Fprintf(stderr, "  %-8s %s\n", cmd.name, cmd.doc)
		}
		fmt.Fprintln(stderr, "exit status: 0 clean, 1 a violation or an error, 2 usage, 130 interrupted")
		return 2
	}
	fmt.Fprintf(stderr, "check %s: %v\n", args[0], err)
	if ctx.Err() != nil && !errors.Is(err, errViolations) {
		return 130
	}
	return 1
}
