package machine_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/memory"
	"memsim/internal/sim"
	"memsim/internal/workloads"
)

// TestRestoreRejectsBadEvents: a snapshot file is outside input, and a
// pending event in it is run by the code every live event runs, so
// Restore must refuse any event that code could not run — the Runner's
// "unusable checkpoint: rebuild and rerun" fallback hangs on the error.
// The test steps Psim under RC (one-entry network buffers, watchdog and
// checker armed) until one snapshot holds all eleven event kinds and a
// grant that completes a transaction, checks that it restores and resumes to the uninterrupted
// checksum, then corrupts one descriptor field at a time, and then the
// list itself: a wake dropped, doubled or moved off the cycle its port
// frees. Every corruption must come back from Restore as an error: not
// a panic, not a success that dies mid-run (or, for a port's lost
// wake, a queue that silently never drains).
func TestRestoreRejectsBadEvents(t *testing.T) {
	p := experiments.Quick()
	w := workloads.Psim(p.Procs, p.PsimPorts, p.PsimRefs, p.Seed)
	cfg := machine.Config{Procs: w.Procs, Model: consistency.RC, CacheSize: p.SmallCache, LineSize: 64,
		LoadDelay: p.LoadDelay, SharedWords: w.SharedWords, NetBuf: 1, StallCycles: 5000, CheckEvery: 499}
	build := func() *machine.Machine {
		m, err := machine.New(cfg, w.Programs)
		if err != nil {
			t.Fatal(err)
		}
		w.Setup(m.Shared())
		return m
	}
	full, err := build().Run(0)
	if err != nil {
		t.Fatal(err)
	}

	kindOf := map[string][2]uint8{}
	for k, name := range eventKinds {
		kindOf[name] = k
	}
	const completes = 1 << 8 // module head: the grant ends a directory transaction
	m := build()
	if _, err := m.RunControlled(machine.RunControl{Until: 1}); !errors.Is(err, machine.ErrPaused) {
		t.Fatal(err)
	}
	for complete := false; !complete; {
		if m.Done() || !m.Eng.Step() {
			t.Fatal("no point of the run has all eleven event kinds pending at once")
		}
		es, err := m.Eng.Save()
		if err != nil {
			t.Fatal(err)
		}
		seen, completing := map[[2]uint8]bool{}, false
		for _, ev := range es.Events {
			k := [2]uint8{ev.Desc.Comp, ev.Desc.Kind}
			seen[k] = true
			completing = completing || (k == kindOf["module head"] && ev.Desc.B&completes != 0)
		}
		complete = len(seen) == len(eventKinds) && completing
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	good := snap.Engine.Events
	t.Logf("cycle %d: %d pending events of %d kinds", snap.Engine.Now, len(good), len(eventKinds))

	m2 := build()
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("the uncorrupted snapshot: %v", err)
	}
	if res, err := m2.Run(0); err != nil || res.Checksum() != full.Checksum() {
		t.Fatalf("the uncorrupted snapshot resumes to %v, %v; the uninterrupted run to %s", res.Checksum(), err, full.Checksum())
	}

	// find returns the first pending event of a kind that ok accepts.
	find := func(kind string, ok func(sim.EventDesc) bool) int {
		for i, ev := range good {
			if [2]uint8{ev.Desc.Comp, ev.Desc.Kind} == kindOf[kind] && (ok == nil || ok(ev.Desc)) {
				return i
			}
		}
		t.Fatalf("no pending %q event to corrupt", kind)
		return -1
	}
	procs := uint64(cfg.Procs)
	stages := uint64(2) // eight ports: two stages of 4x4 switches
	freeMSHR := func(d sim.EventDesc) uint64 {
		for i, ms := range snap.Caches[d.Unit].MSHR {
			if !ms.Valid {
				return uint64(i)
			}
		}
		t.Fatalf("cache %d has no free MSHR", d.Unit)
		return 0
	}
	stableLine := func(d sim.EventDesc) uint64 {
		for _, dl := range snap.Modules[d.Unit].Dir {
			if dl.Entry.State != 3 { // not Busy
				return dl.Line
			}
		}
		t.Fatalf("module %d has no line outside a transaction", d.Unit)
		return 0
	}
	emptyLink := func(d sim.EventDesc) uint64 {
		net := snap.ReqNet
		if d.Unit == 1 {
			net = snap.RespNet
		}
		for i, ps := range net.Links[d.A-1] {
			if len(ps.Queue) == 0 {
				return uint64(i)
			}
		}
		t.Fatalf("network %d stage %d has a queue at every link", d.Unit, d.A-1)
		return 0
	}
	unscheduled := func() int32 {
		for i, c := range snap.CPUs {
			if !c.Core.Scheduled {
				return int32(i)
			}
		}
		t.Fatal("every processor has a run scheduled")
		return 0
	}
	// refused fails t unless Restore turns snap away with an error.
	refused := func(name string) {
		t.Helper()
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("PANIC: %v", r)
				}
			}()
			return build().Restore(snap)
		}()
		switch {
		case err == nil:
			t.Errorf("%s: Restore accepted the snapshot", name)
		case strings.HasPrefix(err.Error(), "PANIC"):
			t.Errorf("%s: Restore panicked: %v", name, err)
		default:
			t.Logf("%s: %v", name, err)
		}
	}
	for _, c := range []struct {
		name, kind string
		ok         func(sim.EventDesc) bool
		corrupt    func(*sim.EventDesc)
	}{
		{"unknown component class", "cpu run", nil, func(d *sim.EventDesc) { d.Comp = 9 }},
		{"no component class", "net wake", nil, func(d *sim.EventDesc) { d.Comp = sim.CompNone }},
		{"cpu unit negative", "cpu run", nil, func(d *sim.EventDesc) { d.Unit = -1 }},
		{"cpu unit out of range", "cpu run", nil, func(d *sim.EventDesc) { d.Unit = int32(procs) }},
		{"cpu kind unknown", "cpu run", nil, func(d *sim.EventDesc) { d.Kind = 9 }},
		{"the spin ghost of format 2", "cpu run", nil, func(d *sim.EventDesc) { d.Kind = 2 }},
		{"run of a processor with none scheduled", "cpu run", nil, func(d *sim.EventDesc) { d.Unit = unscheduled() }},
		{"cache unit out of range", "cache fill", nil, func(d *sim.EventDesc) { d.Unit = int32(procs) }},
		{"cache kind unknown", "cache bind", nil, func(d *sim.EventDesc) { d.Kind = 9 }},
		{"MSHR index out of range", "cache fill", nil, func(d *sim.EventDesc) { d.A = 99 }},
		{"MSHR index huge", "cache bind", nil, func(d *sim.EventDesc) { d.A = 1 << 63 }},
		{"fill of a free MSHR", "cache fill", nil, func(d *sim.EventDesc) { d.A = freeMSHR(*d) }},
		{"module unit out of range", "module unbusy", nil, func(d *sim.EventDesc) { d.Unit = int32(procs) }},
		{"module kind unknown", "module head", nil, func(d *sim.EventDesc) { d.Kind = 9 }},
		{"grant to a cache out of range", "module head", nil, func(d *sim.EventDesc) { d.C = procs }},
		{"grant of a request-class message", "module head", nil, func(d *sim.EventDesc) { d.B = d.B&^0xff | uint64(memory.Invalidate) }},
		{"completion of a line with no entry", "module head", nil, func(d *sim.EventDesc) { d.A, d.B = 0xdead00, d.B|completes }},
		{"completion of a line not in a transaction", "module head", nil, func(d *sim.EventDesc) { d.A, d.B = stableLine(*d), d.B|completes }},
		{"completion into a transient state", "module head", func(d sim.EventDesc) bool { return d.B&completes != 0 },
			func(d *sim.EventDesc) { d.B = d.B&^(0xff<<16) | 3<<16 }},
		{"network unit unknown", "net advance", nil, func(d *sim.EventDesc) { d.Unit = 2 }},
		{"network kind unknown", "net wake", nil, func(d *sim.EventDesc) { d.Kind = 9 }},
		{"advance from a source out of range", "net advance", nil, func(d *sim.EventDesc) { d.C = d.C&^0xffff | procs }},
		{"advance to a destination out of range", "net advance", nil, func(d *sim.EventDesc) { d.C = d.C&^(0xffff<<16) | procs<<16 }},
		{"advance past the last stage", "net advance", nil, func(d *sim.EventDesc) { d.B = d.B&^(0xffff<<16) | (stages+1)<<16 }},
		{"advance of a message without flits", "net advance", nil, func(d *sim.EventDesc) { d.C &= 1<<32 - 1 }},
		{"wake of a stage that does not exist", "net wake", nil, func(d *sim.EventDesc) { d.A = stages + 1 }},
		{"wake of an entrance out of range", "net wake", nil, func(d *sim.EventDesc) { d.A, d.B = 0, procs }},
		{"wake of a link out of range", "net wake", func(d sim.EventDesc) bool { return d.A > 0 }, func(d *sim.EventDesc) { d.B = 1 << 40 }},
		{"wake of a link with nothing queued", "net wake", func(d sim.EventDesc) bool { return d.A > 0 }, func(d *sim.EventDesc) { d.B = emptyLink(*d) }},
		{"space for a source out of range", "net space", nil, func(d *sim.EventDesc) { d.A = procs }},
		{"machine kind unknown", "machine check", nil, func(d *sim.EventDesc) { d.Kind = 9 }},
		{"tail to a module out of range", "machine tail", nil, func(d *sim.EventDesc) { d.B = d.B&(1<<32-1) | procs<<32 }},
		{"tail from a cache out of range", "machine tail", nil, func(d *sim.EventDesc) { d.B = d.B&^(0xffffff<<8) | procs<<8 }},
		{"tail of a message without data", "machine tail", nil, func(d *sim.EventDesc) { d.B = d.B&^0xff | uint64(memory.ReadReq) }},
	} {
		snap.Engine.Events = slices.Clone(good)
		c.corrupt(&snap.Engine.Events[find(c.kind, c.ok)].Desc)
		refused(c.name)
	}

	// A port with a queue has exactly one wake, at the cycle it frees.
	wake := find("net wake", nil)
	goodEngine := snap.Engine
	for _, c := range []struct {
		name string
		edit func(es *sim.EngineState)
	}{
		{"a queued port with no wake", func(es *sim.EngineState) { es.Events = slices.Delete(es.Events, wake, wake+1) }},
		{"a second wake for one port", func(es *sim.EngineState) {
			// A copy right behind it: every later event and the
			// engine's counter move up one sequence number.
			es.Events = slices.Insert(es.Events, wake+1, es.Events[wake])
			for j := wake + 1; j < len(es.Events); j++ {
				es.Events[j].Seq++
			}
			es.Seq++
		}},
		{"a wake off the cycle its port frees", func(es *sim.EngineState) { es.Events[wake].At++ }},
	} {
		snap.Engine = goodEngine
		snap.Engine.Events = slices.Clone(good)
		c.edit(&snap.Engine)
		refused(c.name)
	}
}
