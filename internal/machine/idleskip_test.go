package machine_test

import (
	"errors"
	"fmt"
	"reflect"
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

// sameButEvents lists the fields in which two results differ, Events
// excepted: the one thing spin fast-forward is there to change. The
// configurations may differ in NoSpinSkip, the knob between the runs.
func sameButEvents(live, skip machine.Result) (differing []string) {
	skip.Config.NoSpinSkip = live.Config.NoSpinSkip
	lv, sv := reflect.ValueOf(live), reflect.ValueOf(skip)
	for i := 0; i < lv.NumField(); i++ {
		if name := lv.Type().Field(i).Name; name != "Events" && !reflect.DeepEqual(lv.Field(i).Interface(), sv.Field(i).Interface()) {
			differing = append(differing, name)
		}
	}
	return differing
}

// TestIdleSkipAB: spin fast-forward changes what a run costs the host
// and nothing else. On a 16-processor machine, a synclib
// lock-and-barrier program and Psim run under all ten models, without
// and with fault injection, once with the fast-forward and once with
// every spin iteration live; the two results must agree in every field
// but Events, and there the fast-forward must be ahead. One more row
// takes Psim past the 64 caches of a sharer-set word. The comparison is
// not vacuous: the fast-forward run is paused every few hundred cycles,
// and at some pause a processor must be parked in a spin.
func TestIdleSkipAB(t *testing.T) {
	const lineSize = 32
	a := workloads.NewAlloc()
	lock, counter := a.Line(), a.Line()
	bar := workloads.AllocBarrier(a)
	region := a.Bytes(uint64(16*8*lineSize), 64)
	synclib := workloads.Workload{
		Name:        "synclib",
		Procs:       16,
		Programs:    [][]isa.Inst{parkProgram(lock, counter, bar, region, 8, lineSize, 3)},
		SharedWords: a.WordsUsed(),
	}
	synclib.Programs = append(synclib.Programs, make([][]isa.Inst, synclib.Procs-1)...)

	type row struct {
		w      workloads.Workload
		model  consistency.Model
		faults robust.Faults
	}
	var rows []row
	for _, w := range []workloads.Workload{synclib, workloads.Psim(16, 4*16, 4, 1992)} {
		for _, model := range consistency.Models {
			for _, faults := range []robust.Faults{{}, abFaults} {
				rows = append(rows, row{w, model, faults})
			}
		}
	}
	if !testing.Short() {
		rows = append(rows, row{workloads.Psim(128, 4*128, 1, 1992), consistency.SC1, robust.Faults{}})
	}
	for _, r := range rows {
		w, procs := r.w, r.w.Procs
		name := fmt.Sprintf("%s@%d/%v/faults=%t", w.Name, procs, r.model, r.faults.Enabled())
		build := func(noSkip bool) *machine.Machine {
			m, err := machine.New(machine.Config{
				Procs: procs, Model: r.model, CacheSize: 1 << 10, LineSize: lineSize,
				SharedWords: w.SharedWords, Faults: r.faults, NoSpinSkip: noSkip,
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
		if diff := sameButEvents(live, skip); diff != nil {
			t.Errorf("%s: spin fast-forward changed the result in %v (cycles live %d, skip %d)", name, diff, live.Cycles, skip.Cycles)
		}
		if skip.Checksum() != live.Checksum() {
			t.Errorf("%s: equal results but for Events, and the checksums differ: Checksum covers Events again", name)
		}
		if skip.Events >= live.Events {
			t.Errorf("%s: %d events with the fast-forward, %d without: a parked spinner still costs events", name, skip.Events, live.Events)
		}
	}
}
