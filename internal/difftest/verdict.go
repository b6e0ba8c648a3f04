package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
	"memsim/internal/robust"
)

// Verdict is a recorded litmus.Report as a verdict file holds it, the
// one on-disk format of a checked run. `check litmus -json` streams
// bare reports. A repro bundle is the shrunk program's failing report
// with the program it ran and where that came from attached as extra
// keys, so the file depends on neither the generator nor the driver
// version that produced it: each violation replays bit-exactly from
// its embedded litmus.RunSpec, and the program says what the current
// engine allows.
type Verdict struct {
	*litmus.Report

	Program   *Program        `json:"program,omitempty"`    // what Report.Test ran; nil when that names a library test
	Gen       *GenConfig      `json:"gen,omitempty"`        // generator dials that drew the program
	Original  []litmus.Thread `json:"original,omitempty"`   // pre-shrink program, if shrunk
	CheckSeed int64           `json:"check_seed,omitempty"` // base seed of the check the report came from
}

// Name returns a bundle's canonical file name.
func (v *Verdict) Name() string {
	mut := v.Mutate
	if mut == "" {
		mut = "real"
	}
	return fmt.Sprintf("%s-%s-%d.json", mut, strings.ToLower(v.Model), v.Program.Seed)
}

// Write dumps the bundle under dir (created if needed) and returns
// the file path.
func (v *Verdict) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, v.Name())
	return path, robust.PublishFile(path, append(data, '\n'))
}

// ReadVerdicts reads every verdict in a file: a `-json` stream holds
// one per (test, model), a bundle holds one.
func ReadVerdicts(path string) ([]*Verdict, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var verdicts []*Verdict
	for dec := json.NewDecoder(f); ; {
		v := new(Verdict)
		if err := dec.Decode(v); err == io.EOF {
			return verdicts, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if v.Report == nil {
			return nil, fmt.Errorf("%s: not a verdict file (a value with none of a report's keys)", path)
		}
		verdicts = append(verdicts, v)
	}
}

// allowed derives the outcome set the current engine allows the
// verdict's program: from the attached program, else from the library
// test of that name. Only a verdict whose program is unknown falls
// back on the set it recorded.
func (v *Verdict) allowed() ([]string, error) {
	model, err := consistency.ParseModel(v.Model)
	if err != nil {
		return nil, err
	}
	if v.Program != nil {
		return AllowedSet(*v.Program, consistency.SpecFor(model))
	}
	if t, err := litmus.TestByName(v.Test); err == nil {
		return t.Outcomes(consistency.SpecFor(model))
	}
	return v.Allowed, nil
}

// Replayed is one recorded violation re-executed.
type Replayed struct {
	*litmus.Violation
	Key       string // outcome the re-executed run produced
	Forbidden bool   // the recorded outcome is still outside the allowed set
}

// Status is REPRO when the violation replayed to its recorded verdict
// (the run reproduced its outcome bit-exactly and the current model
// contract still forbids that outcome), CLEAN when the run no longer
// produces the outcome, and LEGAL when the model now allows it.
func (r Replayed) Status() string {
	switch {
	case r.Key != r.Outcome:
		return "CLEAN"
	case !r.Forbidden:
		return "LEGAL"
	}
	return "REPRO"
}

// Replay re-executes every recorded violation from its embedded run
// spec and checks its outcome against the current engine's allowed
// set. It is the only replay of recorded runs.
func (v *Verdict) Replay(ctx context.Context) ([]Replayed, error) {
	if len(v.Violations) == 0 {
		return nil, nil // a clean report: no set to derive
	}
	keys, err := v.allowed()
	if err != nil {
		return nil, err
	}
	out := make([]Replayed, len(v.Violations))
	for i := range v.Violations {
		viol := &v.Violations[i]
		key, _, err := viol.Reproduce(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = Replayed{Violation: viol, Key: key, Forbidden: !slices.Contains(keys, viol.Outcome)}
	}
	return out, nil
}
