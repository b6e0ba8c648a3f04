package main

import (
	"reflect"
	"testing"

	"memsim/internal/experiments"
	"memsim/internal/workloads"
)

// mcsim's flag defaults.
const (
	defProcs = 16
	defIters = 2
	defDelay = 4
	defSeed  = 1992
)

// sameWorkload compares two workloads by what a run sees of them: the
// programs and the shared image their Setup writes (the seed's data).
func sameWorkload(t *testing.T, what string, got, want workloads.Workload) {
	t.Helper()
	if got.Name != want.Name || got.Procs != want.Procs || got.SharedWords != want.SharedWords ||
		!reflect.DeepEqual(got.Programs, want.Programs) || !reflect.DeepEqual(image(got), image(want)) {
		t.Errorf("%s: built %s (%d procs, %d words), want %s (%d procs, %d words), or the programs or images differ",
			what, got.Name, got.Procs, got.SharedWords, want.Name, want.Procs, want.SharedWords)
	}
}

func image(w workloads.Workload) []uint64 {
	mem := make([]uint64, w.SharedWords)
	if w.Setup != nil {
		w.Setup(mem)
	}
	return mem
}

// TestDefaultsAreTheSweepCell: with default flags every benchmark is
// the Runner's Scaled() cell at 16 processors.
func TestDefaultsAreTheSweepCell(t *testing.T) {
	for _, b := range experiments.Benches {
		w, err := workload(string(b), "default", defProcs, 0, defIters, defDelay, defSeed)
		if err != nil {
			t.Fatal(err)
		}
		sameWorkload(t, string(b), w, experiments.Workload(experiments.Scaled(), experiments.RunSpec{Bench: b}))
	}
}

// TestFlagsReachTheConstructor: each flag lands in the constructor
// argument it names, Psim at 64 processors keeps the preset's 64
// ports, and an -n below -procs is raised for Gauss and Relax.
func TestFlagsReachTheConstructor(t *testing.T) {
	for _, c := range []struct {
		bench, sched    string
		procs, n, iters int
		seed            int64
		want            workloads.Workload
	}{
		{"qsort", "default", 8, 800, defIters, defSeed, workloads.Qsort(8, 800, defSeed)},
		{"gauss", "default", 8, 24, defIters, 7, workloads.Gauss(8, 24, 7)},
		{"gauss", "default", 32, 16, defIters, defSeed, workloads.Gauss(32, 32, defSeed)},
		{"relax", "miss-first", 8, 40, 3, defSeed, workloads.Relax(8, 40, 3, workloads.RelaxMissFirst, defSeed)},
		{"Relax", "MISS-LAST", 32, 16, 1, defSeed, workloads.Relax(32, 32, 1, workloads.RelaxMissLast, defSeed)},
		{"psim", "default", 64, 0, defIters, defSeed, workloads.Psim(64, 64, 48, defSeed)},
		{"psim", "default", 128, 8, defIters, 5, workloads.Psim(128, 512, 8, 5)},
	} {
		w, err := workload(c.bench, c.sched, c.procs, c.n, c.iters, defDelay, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		sameWorkload(t, c.bench, w, c.want)
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := workload("gaus", "default", defProcs, 0, defIters, defDelay, defSeed); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := workload("relax", "miss-middle", defProcs, 0, defIters, defDelay, defSeed); err == nil {
		t.Error("unknown Relax schedule accepted")
	}
}
