package machine_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"memsim/internal/asm"
	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/isa"
	"memsim/internal/litmus"
	"memsim/internal/machine"
	"memsim/internal/metrics"
	"memsim/internal/network"
	"memsim/internal/robust"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workloads"
)

// The reset tests use the snapshot as their oracle. A snapshot carries
// every field a component declares as state (TestStateComplete in each
// package), so "a reset machine and a new one encode to the same
// bytes, at cycle 0, at a pause and at the end" holds Reset to all of
// it at once: registers, the image, tags and LRU stamps, directory,
// queues, pending events with their sequence numbers, the fault
// stream's position. What a snapshot does not carry, each component's
// table says Reset keeps or sets again.

// snapStream gob-encodes snapshots one after another, as a snapshot
// file does its one. A stream describes each type once, at the first
// value that has it, and encodes every value on its own after that: two
// streams fed equal snapshots in the same order write equal bytes each
// time. (A new encoder per snapshot would say the same and spend the
// test's time compiling type descriptions.)
type snapStream struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

// newMachines and resetMachines encode the two sides of every
// comparison, in step.
var newMachines, resetMachines snapStream

func (s *snapStream) bytes(t *testing.T, m *machine.Machine) []byte {
	t.Helper()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.enc == nil {
		s.enc = gob.NewEncoder(&s.buf)
	}
	s.buf.Reset()
	if err := s.enc.Encode(snap); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(s.buf.Bytes())
}

// sameSnapshot reports whether a new machine and a reset one are in
// the same state, as far as a snapshot can tell.
func sameSnapshot(t *testing.T, fresh, reset *machine.Machine) bool {
	t.Helper()
	return bytes.Equal(newMachines.bytes(t, fresh), resetMachines.bytes(t, reset))
}

// sameAsFresh resets r to (cfg, progs), builds a new machine from the
// same, and runs both: to the pause cycle, then to the end. Snapshot
// bytes must agree at all three points and the checksums at the last.
// setup, when non-nil, loads the shared image of each. It returns the
// result and whether the run was long enough to pause.
func sameAsFresh(t *testing.T, name string, r *machine.Machine, cfg machine.Config, progs [][]isa.Inst, pause sim.Cycle, setup func([]uint64)) (machine.Result, bool) {
	t.Helper()
	f, err := machine.New(cfg, progs)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	if err := r.Reset(cfg, progs); err != nil {
		t.Fatalf("%s: Reset: %v", name, err)
	}
	if setup != nil {
		setup(f.Shared())
		setup(r.Shared())
	}
	if !sameSnapshot(t, f, r) {
		t.Fatalf("%s: a reset machine and a new one differ before the first event", name)
	}
	_, errF := f.RunControlled(machine.RunControl{Until: pause})
	_, errR := r.RunControlled(machine.RunControl{Until: pause})
	paused := errors.Is(errF, machine.ErrPaused)
	if paused != errors.Is(errR, machine.ErrPaused) || (!paused && (errF != nil || errR != nil)) {
		t.Fatalf("%s: run to cycle %d: new machine %v, reset machine %v", name, pause, errF, errR)
	}
	if !sameSnapshot(t, f, r) {
		t.Fatalf("%s: a reset machine and a new one differ at cycle %d (paused: %t)", name, f.Eng.Now(), paused)
	}
	resF, errF := f.Run(0)
	resR, errR := r.Run(0)
	if errF != nil || errR != nil {
		t.Fatalf("%s: run to the end: new machine %v, reset machine %v", name, errF, errR)
	}
	if a, b := resF.Checksum(), resR.Checksum(); a != b {
		t.Fatalf("%s: checksum of a new machine %s, of a reset one %s", name, a, b)
	}
	// The final snapshot holds every register and the whole image, so it
	// also says the two runs ended in the same litmus outcome.
	if !sameSnapshot(t, f, r) {
		t.Fatalf("%s: a reset machine and a new one differ after the last event", name)
	}
	return resR, paused
}

// litmusRun is one seeded litmus run as the machine sees it: the drawn
// configuration and the programs, padded to the processor count. It
// goes through the replay record's JSON, the one exported way to the
// programs of a litmus.RunSpec.
func litmusRun(t *testing.T, lt *litmus.Test, model consistency.Model, seed int64, procs int) (machine.Config, [][]isa.Inst) {
	t.Helper()
	rs, err := litmus.Setup(lt, model, seed, consistency.MutNone)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	var rec litmus.RunSpec
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	cfg := rec.Machine
	if procs > cfg.Procs {
		cfg.Procs = procs
	}
	progs := make([][]isa.Inst, cfg.Procs)
	for i := range progs {
		progs[i] = []isa.Inst{{Op: isa.HALT}}
		if i < len(rec.Programs) {
			if progs[i], err = asm.Assemble(rec.Programs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cfg, progs
}

// TestResetEqualsNew: the litmus library under all ten models at
// twenty seeds, every run on a machine the previous run — another
// seed's cache, line and MSHR geometry, network buffering, load delay
// and fault stream, another model — was made on. There is one machine
// per processor count, as litmus.Run keeps one per (test, model). On
// odd seeds the run is first abandoned at its pause, events pending,
// and the machine reset once more. A litmus run hardly stays in a spin,
// so the park program follows, abandoned and then compared at the first
// pause that shows a processor spin-parked with nothing pending and at
// the first that shows one stale, its wake scheduled.
func TestResetEqualsNew(t *testing.T) {
	reused := map[int]*machine.Machine{}
	runs, paused := 0, 0
	for _, lt := range litmus.Library() {
		for _, model := range consistency.Models {
			for seed := int64(1); seed <= 20; seed++ {
				cfg, progs := litmusRun(t, lt, model, seed, 0)
				r := reused[cfg.Procs]
				if r == nil {
					r = new(machine.Machine)
					reused[cfg.Procs] = r
				}
				pause := sim.Cycle(20 + 3*seed)
				if seed%2 == 1 {
					if err := r.Reset(cfg, progs); err != nil {
						t.Fatal(err)
					}
					if _, err := r.RunControlled(machine.RunControl{Until: pause}); err != nil && !errors.Is(err, machine.ErrPaused) {
						t.Fatal(err)
					}
				}
				name := lt.Name + "/" + model.String()
				if _, p := sameAsFresh(t, name, r, cfg, progs, pause, nil); p {
					paused++
				}
				runs++
			}
		}
	}
	if paused < runs/2 {
		t.Errorf("only %d of %d runs were still going at their pause cycle: the mid-run comparison is nearly vacuous", paused, runs)
	}

	cfg, progs, _ := parkRun(consistency.RC)
	scout, err := machine.New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	pauses := map[string]sim.Cycle{}
	for c := sim.Cycle(1); len(pauses) < 2; c++ {
		if _, err := scout.RunControlled(machine.RunControl{Until: c}); !errors.Is(err, machine.ErrPaused) {
			t.Fatalf("park program: %d of the two spin states shown by cycle %d: %v", len(pauses), c, err)
		}
		snap, err := scout.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for st := range parkStates(t, snap) {
			if _, ok := pauses[st]; !ok && (st == spinParked || st == spinStale) {
				pauses[st] = c
			}
		}
	}
	r := new(machine.Machine)
	for st, pause := range pauses {
		if err := r.Reset(cfg, progs); err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunControlled(machine.RunControl{Until: pause}); !errors.Is(err, machine.ErrPaused) {
			t.Fatal(err)
		}
		sameAsFresh(t, "park program at a "+st, r, cfg, progs, pause, nil)
	}
}

// TestResetDirtyOrders walks one two-processor machine through the
// configuration changes most likely to leave something behind, each
// step compared with a new machine: the largest cache geometry to the
// smallest and back (slabs shrink, then grow inside their capacity, and
// the MSHR count with them), fault injection on then off, a mutated
// specification then the plain one, four processors then two again,
// and collectors attached then not.
func TestResetDirtyOrders(t *testing.T) {
	mp, err := litmus.TestByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	base, progs := litmusRun(t, mp, consistency.RC, 3, 0)
	base.Faults = robust.Faults{}
	with := func(edit func(*machine.Config)) machine.Config {
		c := base
		edit(&c)
		return c
	}
	big := with(func(c *machine.Config) {
		c.CacheSize, c.LineSize, c.MSHRs, c.NetBuf, c.SharedWords = 2048, 8, 5, 4, 1<<12
	})
	small := with(func(c *machine.Config) {
		c.CacheSize, c.LineSize, c.MSHRs, c.NetBuf, c.SharedWords = 512, 64, 2, 1, 1<<11
	})
	faulted := with(func(c *machine.Config) { c.Faults = abFaults })
	mutated := with(func(c *machine.Config) { c.Model, c.Mutate = consistency.SC1, consistency.MutSCOverlap })
	sc1 := with(func(c *machine.Config) { c.Model = consistency.SC1 })
	// A 3000-cycle watchdog window puts its tick on the engine's overflow
	// heap, where it is still waiting when the run ends.
	watched := with(func(c *machine.Config) { c.StallCycles, c.CheckEvery = 3000, 7 })

	r := new(machine.Machine)
	for _, step := range []struct {
		name string
		cfg  machine.Config
	}{
		{"big", big}, {"small after big", small}, {"big after small", big},
		{"faulted", faulted}, {"unfaulted after faulted", base}, {"faulted again", faulted},
		{"mutated", mutated}, {"plain after mutated", sc1},
		{"watchdog and checker", watched}, {"neither after both", base},
	} {
		sameAsFresh(t, step.name, r, step.cfg, progs, 40, nil)
	}

	// Another processor count is another machine, built in place.
	wide, wideProgs := litmusRun(t, mp, consistency.RC, 3, 4)
	sameAsFresh(t, "four processors after two", r, wide, wideProgs, 40, nil)
	sameAsFresh(t, "two after four", r, base, progs, 40, nil)

	// Collectors: attached for one run, gone after the reset. The next
	// run must neither report to them nor be timed by them.
	if err := r.Reset(base, progs); err != nil {
		t.Fatal(err)
	}
	mc, tr := metrics.New(), trace.New(1<<10)
	r.AttachMetrics(mc)
	r.AttachTracer(tr)
	if _, err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 || len(mc.Save().Stalls) == 0 {
		t.Fatalf("the attached run recorded nothing (%d trace events)", tr.Total())
	}
	traced, collected := tr.Total(), mc.Save()
	sameAsFresh(t, "detached after attached", r, small, progs, 40, nil)
	if tr.Total() != traced {
		t.Errorf("a reset machine still records to the last run's tracer (%d events, then %d)", traced, tr.Total())
	}
	var before, after bytes.Buffer
	if err := errors.Join(gob.NewEncoder(&before).Encode(collected), gob.NewEncoder(&after).Encode(mc.Save())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("a reset machine still reports to the last run's metrics collector")
	}
}

// leftovers names what else an abandoned run leaves in the components
// besides parked processors: the things Reset has to empty.
func leftovers(s *machine.Snapshot) map[string]bool {
	seen := map[string]bool{}
	for _, c := range s.Caches {
		seen["cache output queue"] = seen["cache output queue"] || len(c.Outq) > 0
		seen["remembered invalidations"] = seen["remembered invalidations"] || len(c.Invalidated) > 0
		for _, m := range c.MSHR {
			seen["miss in flight"] = seen["miss in flight"] || m.Valid
		}
	}
	for _, m := range s.Modules {
		seen["module input queue"] = seen["module input queue"] || len(m.Inq) > 0
		seen["module output queue"] = seen["module output queue"] || len(m.Outq) > 0
		seen["occupied module"] = seen["occupied module"] || m.Occ.Busy
	}
	for _, net := range []*network.NetState{&s.ReqNet, &s.RespNet} {
		for _, stage := range append([][]network.PortState{net.Entrance}, net.Links...) {
			for _, port := range stage {
				seen["queued network port"] = seen["queued network port"] || len(port.Queue) > 0
			}
		}
	}
	seen["ticked watchdog"] = s.WatchdogLast > 0
	for what, yes := range seen {
		if !yes {
			delete(seen, what)
		}
	}
	return seen
}

// TestResetFromEveryParkState abandons a sixteen-processor run in each
// of the park states TestSnapshotEveryParkState finds — spin-parked
// processors with nothing pending and with their wake scheduled, a
// pending release, draining write buffers, awaited
// operations, senders waiting for network space, requests parked
// behind a busy directory entry — and with each of the leftovers
// above, every time with events pending, and resets the machine to a
// different, small run, which must match a new machine's. A scout
// machine steps through the run once; the machine under test is put
// into each state by restoring the scout's snapshot into it (a reset
// machine is a new one to Restore, too) and is reset from there, and
// again from a little further on. Last, it runs the whole park program
// again and must reproduce the scout's checksum. The third row has
// one-entry network buffers, so that caches too are caught with
// messages they could not send; the last arms the watchdog and the
// invariant checker, which the small runs do not.
func TestResetFromEveryParkState(t *testing.T) {
	base, progs, _ := parkRun(consistency.SC1)
	procs := base.Procs

	sb, err := litmus.TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	r := new(machine.Machine)
	left := map[string]bool{}
	for _, c := range []struct {
		cfg  machine.Config
		want int // park states this row must show
	}{
		{machine.Config{Model: consistency.SC1}, 4},
		{machine.Config{Model: consistency.RC}, 7},
		{machine.Config{Model: consistency.TSO, NetBuf: 1}, 7},
		{machine.Config{Model: consistency.RC, Faults: abFaults, StallCycles: 300, CheckEvery: 50}, 7},
	} {
		cfg := c.cfg
		cfg.Procs, cfg.CacheSize, cfg.LineSize, cfg.SharedWords = procs, base.CacheSize, base.LineSize, base.SharedWords
		scout, err := machine.New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scout.RunControlled(machine.RunControl{Until: 1}); !errors.Is(err, machine.ErrPaused) {
			t.Fatalf("%v: want ErrPaused, got %v", cfg.Model, err)
		}
		parked, seen := 0, map[string]bool{}
		cycle, everyEvent := uint64(0), false
		for parked < c.want && !scout.Done() {
			if !scout.Eng.Step() {
				t.Fatalf("%v: engine quiesced at cycle %d", cfg.Model, scout.Eng.Now())
			}
			if scout.Eng.Now() == cycle && !everyEvent {
				continue
			}
			snap, err := scout.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if scout.Eng.Now() != cycle {
				cycle, everyEvent = scout.Eng.Now(), fillDue(snap)
			}
			fresh := false
			for st := range parkStates(t, snap) {
				if !seen[st] {
					seen[st], fresh = true, true
					parked++
				}
			}
			for st := range leftovers(snap) {
				if !seen[st] {
					seen[st], left[st], fresh = true, true, true
				}
			}
			if !fresh {
				continue
			}
			if len(snap.Engine.Events) == 0 {
				t.Fatalf("%v: no events pending at cycle %d", cfg.Model, cycle)
			}
			// Abandoned in exactly this state, then 25 cycles further on.
			small, smallProgs := litmusRun(t, sb, consistency.Models[int(cycle)%len(consistency.Models)], int64(cycle), procs)
			for _, runOn := range []sim.Cycle{0, 25} {
				if err := r.Reset(cfg, progs); err != nil {
					t.Fatal(err)
				}
				if err := r.Restore(snap); err != nil {
					t.Fatalf("%v: restoring cycle %d into a reset machine: %v", cfg.Model, cycle, err)
				}
				if _, err := r.RunControlled(machine.RunControl{Until: cycle + runOn}); !errors.Is(err, machine.ErrPaused) {
					t.Fatalf("%v: running on from cycle %d: %v", cfg.Model, cycle, err)
				}
				sameAsFresh(t, "sb after an abandoned park program", r, small, smallProgs, 30, nil)
			}
		}
		if parked != c.want {
			t.Errorf("%v: the run showed %d park states (%v), want %d", cfg.Model, parked, seen, c.want)
		}
		full, err := scout.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Reset(cfg, progs); err != nil {
			t.Fatal(err)
		}
		again, err := r.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := full.Checksum(), again.Checksum(); a != b {
			t.Errorf("%v: park program on the reset machine drifted\n  want %s\n  got  %s", cfg.Model, a, b)
		}
	}
	for _, st := range []string{"cache output queue", "remembered invalidations", "miss in flight", "module input queue",
		"module output queue", "occupied module", "queued network port", "ticked watchdog"} {
		if !left[st] {
			t.Errorf("no run was abandoned with: %s", st)
		}
	}
}

// TestResetReproducesGoldens is the workload-sized case: Psim under SC1
// with 8-byte lines, then under RC with 64-byte lines, on one
// eight-processor machine reset in between. Both must come to the
// checksums quick.json has held since before Reset existed.
func TestResetReproducesGoldens(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden/quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	p := experiments.Quick()
	w := workloads.Psim(p.Procs, p.PsimPorts, p.PsimRefs, p.Seed)
	r := new(machine.Machine)
	for _, c := range []struct {
		key   string
		model consistency.Model
		line  int
	}{
		{"Psim/SC1/line8", consistency.SC1, 8},
		{"Psim/RC/line64", consistency.RC, 64},
		{"Psim/SC1/line8", consistency.SC1, 8},
	} {
		cfg := machine.Config{Procs: w.Procs, Model: c.model, CacheSize: p.LargeCache, LineSize: c.line,
			LoadDelay: p.LoadDelay, SharedWords: w.SharedWords}
		res, _ := sameAsFresh(t, c.key, r, cfg, w.Programs, 5000, w.Setup)
		if err := w.Validate(r.Shared()); err != nil {
			t.Errorf("%s on the reset machine: %v", c.key, err)
		}
		if got := res.Checksum(); got != golden[c.key] {
			t.Errorf("%s on the reset machine: checksum %s, quick.json has %s", c.key, got, golden[c.key])
		}
	}
}

// TestNewLeavesItsArgumentAlone: the machine keeps its own list of the
// programs. The caller's slice keeps its nil slots and may be reused
// for the next machine the moment New returns.
func TestNewLeavesItsArgumentAlone(t *testing.T) {
	halt := []isa.Inst{{Op: isa.HALT}}
	progs := [][]isa.Inst{halt, nil, nil, nil}
	m, err := machine.New(machine.Config{Procs: 4, Model: consistency.SC1, CacheSize: 1 << 10, LineSize: 16, SharedWords: 64}, progs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(progs); i++ {
		if progs[i] != nil {
			t.Errorf("New filled in slot %d of its caller's slice", i)
		}
	}
	progs[0], progs[1] = nil, []isa.Inst{{Op: isa.NOP}, {Op: isa.HALT}}
	res, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.CPUs {
		if c.Instructions != 1 {
			t.Errorf("processor %d retired %d instructions, want the one halt it was given: the machine runs its caller's slice", i, c.Instructions)
		}
	}
}

// TestResetRefusals: what Reset cannot do it says before it touches
// anything, and the machine it refused still runs what it held.
func TestResetRefusals(t *testing.T) {
	halt := []isa.Inst{{Op: isa.HALT}}
	cfg := machine.Config{Procs: 2, Model: consistency.RC, CacheSize: 1 << 10, LineSize: 16, SharedWords: 64}
	m, err := machine.New(cfg, [][]isa.Inst{halt, halt})
	if err != nil {
		t.Fatal(err)
	}
	badLine := cfg
	badLine.LineSize = 24
	for name, try := range map[string]func() error{
		"too few programs":         func() error { return m.Reset(cfg, [][]isa.Inst{halt}) },
		"an invalid configuration": func() error { return m.Reset(badLine, [][]isa.Inst{halt, halt}) },
		"a missing first program":  func() error { return m.Reset(cfg, [][]isa.Inst{nil, halt}) },
		"an invalid program":       func() error { return m.Reset(cfg, [][]isa.Inst{halt, {{Op: isa.J, Imm: 9}}}) },
	} {
		if err := try(); err == nil {
			t.Errorf("Reset accepted %s", name)
		}
	}
	if got := m.Config(); got.Procs != 2 || got.LineSize != 16 {
		t.Errorf("a refused Reset changed the configuration to %+v", got)
	}
	if _, err := m.Run(0); err != nil {
		t.Errorf("after refused Resets the machine no longer runs: %v", err)
	}
}
