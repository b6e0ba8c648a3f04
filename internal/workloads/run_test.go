package workloads

import (
	"fmt"
	"slices"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/machine"
)

// runWorkload executes a workload on a small machine and validates.
func runWorkload(t *testing.T, w Workload, model consistency.Model, lineSize, cacheSize int) machine.Result {
	t.Helper()
	cfg := machine.Config{
		Procs:       w.Procs,
		Model:       model,
		CacheSize:   cacheSize,
		LineSize:    lineSize,
		SharedWords: w.SharedWords,
	}
	m, err := machine.New(cfg, w.Programs)
	if err != nil {
		t.Fatalf("%s: machine.New: %v", w.Name, err)
	}
	if w.Setup != nil {
		w.Setup(m.Shared())
	}
	res, err := m.Run(800_000_000)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, model, err)
	}
	if w.Validate != nil {
		if err := w.Validate(m.Shared()); err != nil {
			t.Fatalf("%s/%v: validation: %v", w.Name, model, err)
		}
	}
	return res
}

var testModels = []consistency.Model{
	consistency.SC1, consistency.SC2, consistency.WO1,
	consistency.WO2, consistency.RC, consistency.BSC1, consistency.BWO1,
}

func TestGaussSmallAllModels(t *testing.T) {
	for _, model := range testModels {
		w := Gauss(4, 12, 42)
		res := runWorkload(t, w, model, 16, 1<<10)
		if res.TotalReads() == 0 || res.TotalWrites() == 0 {
			t.Errorf("%v: no shared traffic", model)
		}
	}
}

func TestGaussDeterministicCycles(t *testing.T) {
	w1 := Gauss(4, 10, 7)
	w2 := Gauss(4, 10, 7)
	r1 := runWorkload(t, w1, consistency.WO1, 16, 1<<10)
	r2 := runWorkload(t, w2, consistency.WO1, 16, 1<<10)
	if r1.Cycles != r2.Cycles {
		t.Errorf("nondeterministic: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestGaussScalesWithProcs(t *testing.T) {
	// More processors must not change the answer and should not be
	// slower on a reasonably sized problem.
	w4 := Gauss(4, 48, 3)
	w8 := Gauss(8, 48, 3)
	r4 := runWorkload(t, w4, consistency.SC1, 16, 4<<10)
	r8 := runWorkload(t, w8, consistency.SC1, 16, 4<<10)
	if r8.Cycles >= r4.Cycles {
		t.Errorf("8 procs (%d cycles) not faster than 4 (%d)", r8.Cycles, r4.Cycles)
	}
}

func TestRelaxSmallAllModels(t *testing.T) {
	for _, model := range testModels {
		w := Relax(4, 8, 2, RelaxDefault, 11)
		res := runWorkload(t, w, model, 8, 1<<10)
		if res.SyncOps() == 0 && model != 0 { // SC1 hardware sees no sync
			_ = res
		}
	}
}

func TestRelaxSchedulesAllValidate(t *testing.T) {
	for _, sched := range []RelaxSchedule{RelaxDefault, RelaxMissFirst, RelaxMissLast} {
		for _, model := range []consistency.Model{consistency.SC1, consistency.WO1} {
			w := Relax(4, 8, 2, sched, 11)
			runWorkload(t, w, model, 8, 1<<10)
		}
	}
}

func TestQsortSmallAllModels(t *testing.T) {
	for _, model := range testModels {
		w := Qsort(4, 300, 99)
		res := runWorkload(t, w, model, 16, 1<<10)
		if res.SyncOps() == 0 && consistency.SpecFor(model).SyncVisible {
			t.Errorf("%v: no sync ops", model)
		}
	}
}

func TestQsortAlreadySortedAndReversed(t *testing.T) {
	// Adversarial inputs stress the partition paths (empty subranges).
	w := Qsort(4, 100, 5)
	// Overwrite setup with sorted input.
	origSetup := w.Setup
	w.Setup = func(mem []uint64) {
		origSetup(mem)
		// ascending 0..99 replaces the random data
		for i := 0; i < 100; i++ {
			mem[8+uint64(i)] = uint64(i) // arrBase is 64 bytes = word 8
		}
	}
	w.Validate = func(mem []uint64) error {
		for i := 0; i < 100; i++ {
			if mem[8+uint64(i)] != uint64(i) {
				return fmt.Errorf("a[%d] = %d", i, mem[8+uint64(i)])
			}
		}
		return nil
	}
	runWorkload(t, w, consistency.WO1, 16, 1<<10)
}

func TestPsimSmallAllModels(t *testing.T) {
	for _, model := range testModels {
		w := Psim(4, 16, 6, 123)
		res := runWorkload(t, w, model, 16, 1<<10)
		if consistency.SpecFor(model).SyncVisible && res.SyncOps() == 0 {
			t.Errorf("%v: no sync ops", model)
		}
	}
}

func TestPsimHighSharingSignature(t *testing.T) {
	// Psim's misses should be dominated by invalidation misses once
	// warm (the paper reports ~70%), and its sync rate should beat the
	// other benchmarks'.
	w := Psim(4, 16, 24, 123)
	res := runWorkload(t, w, consistency.WO1, 16, 16<<10)
	if f := res.InvalidationMissFraction(); f < 0.3 {
		t.Errorf("invalidation miss fraction = %.2f, want >= 0.3", f)
	}
	if res.SyncOps() == 0 {
		t.Fatal("no sync ops")
	}
}

func TestQsortRWOValidatesAndRaisesWriteHits(t *testing.T) {
	base := Qsort(4, 400, 9)
	rwo := QsortRWO(4, 400, 9)
	rb := runWorkload(t, base, consistency.SC1, 8, 1<<10)
	rr := runWorkload(t, rwo, consistency.SC1, 8, 1<<10)
	if rr.WriteHitRate() <= rb.WriteHitRate() {
		t.Errorf("RWO write hit rate %.2f not above base %.2f",
			rr.WriteHitRate(), rb.WriteHitRate())
	}
}

// TestKeptReferenceCatchesWrongAnswer: Gauss, Qsort and Relax compute
// their reference on the first Validate and keep it. After a run that
// passes, a copy of its image with one result word flipped — the first
// word the run changed, which lies in the result array in all three
// layouts — must fail that call and a later one, while the run's own
// image still passes.
func TestKeptReferenceCatchesWrongAnswer(t *testing.T) {
	for _, w := range []Workload{Gauss(4, 12, 42), Qsort(4, 200, 42), Relax(4, 8, 1, RelaxDefault, 42)} {
		m, err := machine.New(machine.Config{Procs: w.Procs, Model: consistency.RC, CacheSize: 1 << 10,
			LineSize: 16, SharedWords: w.SharedWords}, w.Programs)
		if err != nil {
			t.Fatal(err)
		}
		w.Setup(m.Shared())
		input := slices.Clone(m.Shared())
		if _, err := m.Run(0); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		good := m.Shared()
		if err := w.Validate(good); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		bad := slices.Clone(good)
		i := 0
		for bad[i] == input[i] {
			i++
		}
		bad[i] ^= 1 << 63
		for call := 1; call <= 2; call++ {
			if w.Validate(bad) == nil {
				t.Errorf("%s: word %d flipped passes Validate on call %d after the reference", w.Name, i, call)
			}
		}
		if err := w.Validate(good); err != nil {
			t.Errorf("%s: the run's own image fails a later Validate: %v", w.Name, err)
		}
	}
}
