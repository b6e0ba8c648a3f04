package litmus_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/litmus"
)

// testdata/witnessed.json pins what the seeded check loop sees, not
// just that it is allowed: per (test, model) pair the number of
// distinct outcomes witnessed and the SHA-256 of the histogram, for the
// library at Seed 1992, Runs 40 and for 20 generated programs at 25
// runs — the conformance benchmark's pass. Every run of a pair after
// the first executes on a machine some other configuration ran on
// before (litmus.Run resets one machine between runs), so state that
// leaks through a reset moves a histogram here while every outcome
// stays allowed and every other test stays green. The table was
// generated at the commit before machine.Reset existed, where each run
// built its own machine (this file compiles there and regenerates it
// byte for byte). Regenerate after an intentional change to the
// perturbation driver, the code generator or simulated timing:
//
//	go test ./internal/litmus -run TestWitnessedPinned -update

const witnessedPinPath = "testdata/witnessed.json"

type witnessedPin struct {
	Outcomes int    `json:"outcomes"`
	SHA256   string `json:"sha256"`
}

// histogram renders a report's witnessed counts in key order.
func histogram(rep *litmus.Report) string {
	var b strings.Builder
	for _, k := range rep.WitnessedKeys() {
		fmt.Fprintf(&b, "%s=%d\n", k, rep.Witnessed[k])
	}
	return b.String()
}

func TestWitnessedPinned(t *testing.T) {
	const seed = 1992
	got := make(map[string]witnessedPin)
	hists := make(map[string]string)
	record := func(name string, rep *litmus.Report) {
		if !rep.OK() {
			t.Errorf("%s: forbidden outcome %s at seed %d", name, rep.Violations[0].Outcome, rep.Violations[0].Seed)
		}
		h := histogram(rep)
		sum := sha256.Sum256([]byte(h))
		got[name] = witnessedPin{Outcomes: len(rep.Witnessed), SHA256: hex.EncodeToString(sum[:])}
		hists[name] = h
	}
	for _, lt := range litmus.Library() {
		for _, m := range consistency.Models {
			rep, err := litmus.Run(lt, m, litmus.Config{Runs: 40, Seed: seed})
			if err != nil {
				t.Fatalf("%s/%s: %v", lt.Name, m, err)
			}
			record(lt.Name+"/"+m.String(), rep)
		}
	}
	for i := int64(0); i < 20; i++ {
		p := difftest.Generate(difftest.DefaultGen(), seed+i)
		rep, err := difftest.CheckProgram(context.Background(), p, consistency.Models, difftest.CheckConfig{Runs: 25, Seed: seed})
		if err != nil {
			t.Fatalf("difftest program %d: %v", p.Seed, err)
		}
		for _, mr := range rep.Models {
			record(fmt.Sprintf("difftest-%d/%s", p.Seed, mr.Model), mr)
		}
	}

	if *litmus.Update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessedPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d histograms to %s", len(got), witnessedPinPath)
		return
	}
	data, err := os.ReadFile(witnessedPinPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]witnessedPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", witnessedPinPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d (test, model) pairs, table has %d", len(got), len(want))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: witnessed %+v, pinned %+v; histogram now:\n%s", name, g, w, hists[name])
		}
	}
}
