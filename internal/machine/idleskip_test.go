package machine_test

import (
	"errors"
	"fmt"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/machine"
	"memsim/internal/robust"
	"memsim/internal/sim"
	"memsim/internal/workloads"
)

// abFaults jitters about a quarter of all network deliveries by up to
// nine cycles: enough to move every invalidation a spinner waits on.
var abFaults = robust.Faults{Seed: 3, DelayProb: 0.25, MaxExtraDelay: 9}

// TestIdleSkipAB: spin fast-forward changes wall clock only. On a
// 16-processor machine, a synclib lock-and-barrier program and Psim
// run under all ten models, without and with fault injection, once
// with the fast-forward and once with every spin iteration live; the
// two must end in equal checksums. The comparison is not vacuous: the
// fast-forward run is paused every few hundred cycles, and at some
// pause a processor must be parked in a spin.
func TestIdleSkipAB(t *testing.T) {
	const procs, lineSize = 16, 32
	a := workloads.NewAlloc()
	lock, counter := a.Line(), a.Line()
	bar := workloads.AllocBarrier(a)
	region := a.Bytes(uint64(procs*8*lineSize), 64)
	synclib := workloads.Workload{
		Name:        "synclib",
		Programs:    [][]isa.Inst{parkProgram(lock, counter, bar, region, 8, lineSize, 3)},
		SharedWords: a.WordsUsed(),
	}
	synclib.Programs = append(synclib.Programs, make([][]isa.Inst, procs-1)...)

	for _, w := range []workloads.Workload{synclib, workloads.Psim(procs, 4*procs, 4, 1992)} {
		for _, model := range consistency.Models {
			for _, faults := range []robust.Faults{{}, abFaults} {
				name := fmt.Sprintf("%s/%v/faults=%t", w.Name, model, faults.Enabled())
				build := func(noSkip bool) *machine.Machine {
					m, err := machine.New(machine.Config{
						Procs: procs, Model: model, CacheSize: 1 << 10, LineSize: lineSize,
						SharedWords: w.SharedWords, Faults: faults, NoSpinSkip: noSkip,
					}, w.Programs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if w.Setup != nil {
						w.Setup(m.Shared())
					}
					return m
				}
				live, err := build(true).Run(0)
				if err != nil {
					t.Fatalf("%s: live run: %v", name, err)
				}

				m := build(false)
				spun := false
				var skip machine.Result
				for until := sim.Cycle(300); ; until += 300 {
					skip, err = m.RunControlled(machine.RunControl{Until: until})
					if !errors.Is(err, machine.ErrPaused) {
						break
					}
					for i := 0; i < procs && !spun; i++ {
						spun = m.CPU(i).ParkedReason() == "spin"
					}
				}
				if err != nil {
					t.Fatalf("%s: fast-forward run: %v", name, err)
				}
				if !spun {
					t.Errorf("%s: no processor was ever spin-parked at a pause; the A/B compares nothing", name)
				}
				if got, want := skip.Checksum(), live.Checksum(); got != want {
					t.Errorf("%s: spin fast-forward changed the result\n  live %s\n  skip %s", name, want, got)
				}
			}
		}
	}
}
