package difftest

import (
	"context"
	"fmt"
	"slices"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
	"memsim/internal/robust"
)

// CheckConfig parameterizes the differential check of one program.
type CheckConfig struct {
	Runs int   // perturbed hardware runs per (program, model)
	Seed int64 // base seed; run i uses Seed+i

	// Mutate seeds a deliberate hardware defect (the self-check). The
	// allowed set always comes from the unmutated model contract —
	// that is the point: a real defect must escape it.
	Mutate consistency.Mutation
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.Runs <= 0 {
		c.Runs = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Report is the verdict of one program across a model set: one
// litmus.Run report per model, each Allowed set the engine's.
type Report struct {
	Models []*litmus.Report
}

// OK reports whether every model's every observed outcome was allowed.
func (r *Report) OK() bool { return r.Failed() == nil }

// Failed returns the first model report holding a violation, or nil.
func (r *Report) Failed() *litmus.Report {
	for _, m := range r.Models {
		if !m.OK() {
			return m
		}
	}
	return nil
}

// test wraps the program as a runnable litmus test.
func (p Program) test() *litmus.Test {
	t, _ := litmus.SynthTest(p.Threads)
	t.Name = fmt.Sprintf("difftest-%d", p.Seed)
	t.Stride = p.Stride
	return t
}

// crossCheck validates one engine set (sorted) against the program's
// SC interleaving oracle set: an SC spec's engine set must equal the
// oracle set exactly, and a relaxed spec's must contain it (the engine
// only ever adds outcomes by relaxing order). A mismatch is an engine
// soundness bug and comes back as a typed Conformance error.
func crossCheck(p Program, spec consistency.Spec, engine, oracle []string) error {
	unsound := func(format string, args ...any) error {
		return &robust.SimError{
			Kind:      robust.Conformance,
			Component: "difftest",
			Unit:      -1,
			Detail:    fmt.Sprintf(format, args...) + " program " + litmus.FormatProgram(p.Threads),
		}
	}
	for _, k := range oracle {
		if _, found := slices.BinarySearch(engine, k); !found {
			return unsound("engine under %s drops SC-reachable outcome %q of", spec.Name, k)
		}
	}
	if spec.SequentiallyConsistent() && len(engine) != len(oracle) {
		return unsound("engine under SC spec %s allows %d outcomes, oracle %d, on", spec.Name, len(engine), len(oracle))
	}
	return nil
}

// AllowedSet computes the engine's allowed outcome keys for the
// program under one model, cross-checked against the SC oracle.
func AllowedSet(p Program, spec consistency.Spec) ([]string, error) {
	t := p.test()
	engine, err := t.Outcomes(spec)
	if err != nil {
		return nil, err
	}
	oracle, err := t.OracleKeys()
	if err != nil {
		return nil, err
	}
	return engine, crossCheck(p, spec, engine, oracle)
}

// CheckProgram runs the differential check across a model set: under
// each model the program runs cfg.Runs times on the simulated hardware
// (each run drawing a different perturbation from its seed) and every
// observed outcome is checked against the engine's allowed set, itself
// cross-checked against the SC oracle. The oracle is model-independent
// and enumerated once.
func CheckProgram(ctx context.Context, p Program, models []consistency.Model, cfg CheckConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{}
	t := p.test()
	oracle, err := t.OracleKeys()
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		mr, err := litmus.Run(t, m, litmus.Config{Runs: cfg.Runs, Seed: cfg.Seed, Mutate: cfg.Mutate, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		if mr.Interrupted {
			return nil, ctx.Err()
		}
		if err := crossCheck(p, consistency.SpecFor(m), mr.Allowed, oracle); err != nil {
			return nil, err
		}
		rep.Models = append(rep.Models, mr)
	}
	return rep, nil
}

// CheckModel is CheckProgram under a single model.
func CheckModel(ctx context.Context, p Program, model consistency.Model, cfg CheckConfig) (*litmus.Report, error) {
	rep, err := CheckProgram(ctx, p, []consistency.Model{model}, cfg)
	if err != nil {
		return nil, err
	}
	return rep.Models[0], nil
}
