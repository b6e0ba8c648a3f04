// 64-processor golden corpus.
//
// TestGoldenBig pins a small grid of 64-CPU runs — Gauss and Psim
// under the paper's five system types at the Quick preset sizes —
// in testdata/golden/big.json. It complements the 8-processor corpus:
// big machines exercise the radix-4 network at more stages, the wide
// directory sharer maps, and the spin fast-forward path under heavy
// barrier contention. The grid is computed twice with independent
// runners and must agree with itself before it is compared against
// the pinned corpus, so flakiness is distinguishable from drift.
//
// Beside it, testdata/golden/big-events.json pins what the two Psim
// runs the benchmark's psim-64 workload makes (SC1 and RC) cost the
// host in engine events. Result.Checksum leaves Events out, so nothing
// else would notice a spin ghost or a per-iteration tick creeping back:
// this is the first entry of the event census (ROADMAP item 2).
//
// Regenerate both after an intentional behavior change with:
//
//	go test -run TestGoldenBig -update
package memsim_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"memsim"
	"memsim/internal/experiments"
)

const (
	bigGoldenPath = "testdata/golden/big.json"
	bigEventsPath = "testdata/golden/big-events.json"
)

const bigGoldenProcs = 64

func bigGoldenGrid(p experiments.Params) []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, b := range []experiments.Bench{experiments.BGauss, experiments.BPsim} {
		for _, m := range goldenModels {
			specs = append(specs, experiments.RunSpec{
				Bench: b, Model: m, Procs: bigGoldenProcs,
				CacheSize: p.LargeCache, LineSize: p.LineSizes[len(p.LineSizes)-1],
			})
		}
	}
	return specs
}

func TestGoldenBig(t *testing.T) {
	if testing.Short() {
		t.Skip("64-CPU golden corpus runs full simulations; skipped in -short mode")
	}
	p := experiments.Quick()
	grid := bigGoldenGrid(p)
	r := experiments.NewRunner(p)
	got := computeChecksums(t, r, grid)
	again := computeChecksums(t, experiments.NewRunner(p), grid)
	for k, v := range got {
		if again[k] != v {
			t.Errorf("%s: two runs disagree (%s vs %s) — nondeterminism, not drift", k, v, again[k])
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	events := map[string]uint64{}
	for _, s := range grid {
		if s.Bench == experiments.BPsim && (s.Model == memsim.SC1 || s.Model == memsim.RC) {
			res, err := r.Run(s) // recalled: r ran it above
			if err != nil {
				t.Fatal(err)
			}
			events[goldenKey(s)] = res.Events
		}
	}

	if *update {
		writeGolden(t, bigGoldenPath, got)
		b, err := json.MarshalIndent(events, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bigEventsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareGolden(t, bigGoldenPath, got)
	raw, err := os.ReadFile(bigEventsPath)
	if err != nil {
		t.Fatalf("reading the event counts (regenerate with -update): %v", err)
	}
	var want map[string]uint64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", bigEventsPath, err)
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("engine events of the psim-64 runs moved (same checksums or not, the host pays for them)\n  want %v\n  got  %v", want, events)
	}
}
