package machine_test

import (
	"errors"
	"path/filepath"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/machine"
	"memsim/internal/progb"
	"memsim/internal/robust"
	"memsim/internal/sim"
	"memsim/internal/workloads"
)

// parkProgram is a 16-processor synclib program built to visit every
// way a component can be parked: each round streams stores over a
// private region bigger than the cache (misses in flight, dirty
// evictions, a busy write buffer), takes one contended lock to bump a
// shared counter (waiters parked behind a busy directory entry, a
// release issued while stores are outstanding), and crosses a barrier
// (fifteen spinners, then fifteen invalidations bursting into a
// four-entry response-network buffer).
func parkProgram(lock, counter uint64, bar workloads.Barrier, region uint64, lines, lineSize, rounds int) []isa.Inst {
	b := progb.New()
	sense, r, rEnd, k, kEnd, addr, v := b.Alloc(), b.Alloc(), b.Alloc(), b.Alloc(), b.Alloc(), b.Alloc(), b.Alloc()
	b.Li(sense, 0)
	b.Li(rEnd, int64(rounds))
	b.Li(kEnd, int64(lines))
	b.ForRange(r, 0, rEnd, 1, func() {
		b.LiU(v, uint64(lines*lineSize))
		b.Mul(addr, isa.RID, v)
		b.LiU(v, region)
		b.Add(addr, addr, v)
		b.ForRange(k, 0, kEnd, 1, func() {
			b.St(addr, 0, r)
			b.Addi(addr, addr, int64(lineSize))
		})
		b.LiU(addr, lock)
		workloads.EmitLock(b, addr)
		b.LiU(v, counter)
		b.Ld(k, v, 0)
		b.Addi(k, k, 1)
		b.St(v, 0, k)
		workloads.EmitUnlock(b, addr)
		workloads.EmitBarrier(b, bar, sense)
	})
	b.Halt()
	return b.MustBuild()
}

// parkRun is the park program as one run: sixteen processors with
// caches small enough to evict, two rounds, after which the word at
// counter holds parkRunBumps, one per processor and round.
const parkRunBumps = 16 * 2

func parkRun(model consistency.Model) (cfg machine.Config, progs [][]isa.Inst, counter uint64) {
	const procs, lineSize, lines, rounds = 16, 32, 48, parkRunBumps / 16
	a := workloads.NewAlloc()
	lock, counter := a.Line(), a.Line()
	bar := workloads.AllocBarrier(a)
	region := a.Bytes(uint64(procs*lines*lineSize), 64)
	progs = make([][]isa.Inst, procs)
	progs[0] = parkProgram(lock, counter, bar, region, lines, lineSize, rounds)
	return machine.Config{Procs: procs, Model: model, CacheSize: 1 << 10, LineSize: lineSize, SharedWords: a.WordsUsed()}, progs, counter
}

// The two halves of a spin park: the processor has no event at all
// until its watched line changes, and from then until the next
// iteration boundary it has its wake.
const (
	spinParked = "spin-parked cpu with nothing pending"
	spinStale  = "stale spinner with its wake scheduled"
)

// parkStates names the park states a saved snapshot shows, and holds
// each spin park to the events it may have pending.
func parkStates(t *testing.T, s *machine.Snapshot) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	runs := make([]int, len(s.CPUs))
	for _, ev := range s.Engine.Events {
		if ev.Desc.Comp == sim.CompCPU {
			runs[ev.Desc.Unit]++
		}
	}
	for i, c := range s.CPUs {
		if c.Core.Spinning {
			state, want := spinParked, 0
			if c.Core.SpinStale {
				state, want = spinStale, 1
			}
			seen[state] = true
			if runs[i] != want {
				t.Errorf("cycle %d: cpu %d is a %s and has %d events pending", s.Engine.Now, i, state, runs[i])
			}
		}
		if c.Core.Release.Active {
			seen["pending RC release"] = true
		}
		for _, e := range c.Core.WB {
			if e.Issued && !e.Retired {
				seen["write buffer with an issued drain"] = true
			}
		}
		for _, op := range c.Ops {
			if op.Awaited && op.MSHR >= 0 {
				seen["awaited op in an MSHR"] = true
			}
			if op.Awaited && op.MSHR < 0 {
				seen["awaited op already retired"] = true
			}
		}
	}
	for _, net := range []*[]bool{&s.ReqNet.OnSpace, &s.RespNet.OnSpace} {
		for _, waiting := range *net {
			if waiting {
				seen["network space wait"] = true
			}
		}
	}
	for _, m := range s.Modules {
		for _, d := range m.Dir {
			if len(d.Entry.Pending) > 0 {
				seen["busy directory entry with parked waiters"] = true
			}
		}
	}
	return seen
}

// betweenPhases names the one point of a cycle that is neither of its
// halves: the deliveries have run, the processors have not, and
// nothing pending says so but the order of what is left.
const betweenPhases = "cycle stopped between its deliveries and its processors"

// stoppedBetweenPhases reports whether m, whose snapshot s is, stands
// at that point: no processor has run in this cycle, and what is due in
// it is processors only.
func stoppedBetweenPhases(m *machine.Machine, s *machine.Snapshot) bool {
	due := 0
	for _, ev := range s.Engine.Events {
		if ev.At != s.Engine.Now {
			continue
		}
		if ev.Desc.Comp != sim.CompCPU {
			return false
		}
		due++
	}
	return due > 0 && !m.Eng.ProcessorPhase()
}

// fillDue reports whether a processor that awaits an operation has a
// cache event due in the snapshot's current cycle: the cycle to look at
// event by event, because an awaited operation that has retired stays
// that way only until the processor's own event later in the cycle.
func fillDue(s *machine.Snapshot) bool {
	for _, ev := range s.Engine.Events {
		if ev.At == s.Engine.Now && ev.Desc.Comp == sim.CompCache && s.CPUs[ev.Desc.Unit].Awaiting {
			return true
		}
	}
	return false
}

// TestSnapshotEveryParkState closes the gap the random pause points of
// TestSnapshotRoundTripAllModels leave to luck. It saves the machine
// after the first event of every simulated cycle (after every event of
// a cycle fillDue picks), and the first snapshot to show each park
// state goes through a file into a fresh machine, which must finish
// with the uninterrupted run's checksum. Each model must show the
// states listed for it; between them the three show all eight, and
// every one is also stopped once between a cycle's deliveries and its
// processors. The fourth row is a machine under fault injection, where
// spin fast-forward stays on: its spin-parked snapshots carry the
// fault stream's position and must resume to the same checksum too.
func TestSnapshotEveryParkState(t *testing.T) {
	const (
		wbDrain    = "write buffer with an issued drain"
		release    = "pending RC release"
		awaitMSHR  = "awaited op in an MSHR"
		awaitDone  = "awaited op already retired"
		spaceWait  = "network space wait"
		dirWaiters = "busy directory entry with parked waiters"
	)
	for _, c := range []struct {
		model  consistency.Model
		faults robust.Faults
		want   []string
	}{
		{consistency.SC1, robust.Faults{}, []string{spinParked, spinStale, betweenPhases, spaceWait, dirWaiters}},
		{consistency.RC, robust.Faults{}, []string{spinParked, spinStale, betweenPhases, release, awaitMSHR, awaitDone, spaceWait, dirWaiters}},
		{consistency.TSO, robust.Faults{}, []string{spinParked, spinStale, betweenPhases, wbDrain, awaitMSHR, awaitDone, spaceWait, dirWaiters}},
		{consistency.RC, abFaults, []string{spinParked, spinStale, betweenPhases, release, awaitMSHR, awaitDone, spaceWait, dirWaiters}},
	} {
		cfg, progs, counter := parkRun(c.model)
		cfg.Faults = c.faults
		build := func() *machine.Machine {
			m, err := machine.New(cfg, progs)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := build()
		full, err := m.Run(0)
		if err != nil {
			t.Fatalf("%v: uninterrupted run: %v", c.model, err)
		}
		if got := m.Shared()[counter/8]; got != parkRunBumps {
			t.Fatalf("%v: counter = %d, want %d", c.model, got, parkRunBumps)
		}
		want := full.Checksum()

		m = build()
		if _, err := m.RunControlled(machine.RunControl{Until: 1}); !errors.Is(err, machine.ErrPaused) {
			t.Fatalf("%v: want ErrPaused, got %v", c.model, err)
		}
		path := filepath.Join(t.TempDir(), "park.mcsp")
		seen := map[string]bool{}
		cycle, everyEvent := uint64(0), false
		for len(seen) < len(c.want) && !m.Done() {
			if !m.Eng.Step() {
				t.Fatalf("%v: engine quiesced at cycle %d", c.model, m.Eng.Now())
			}
			if m.Eng.Now() == cycle && !everyEvent {
				continue
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("%v: snapshot at cycle %d: %v", c.model, m.Eng.Now(), err)
			}
			if m.Eng.Now() != cycle {
				cycle, everyEvent = m.Eng.Now(), fillDue(snap)
			}
			states := parkStates(t, snap)
			states[betweenPhases] = stoppedBetweenPhases(m, snap)
			var fresh []string
			for st, shown := range states {
				if shown && !seen[st] {
					seen[st] = true
					fresh = append(fresh, st)
				}
			}
			if fresh == nil {
				continue
			}
			if err := machine.WriteSnapshotFile(path, snap); err != nil {
				t.Fatal(err)
			}
			read, err := machine.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m2 := build()
			if err := m2.Restore(read); err != nil {
				t.Fatalf("%v: restore at cycle %d (%q): %v", c.model, cycle, fresh, err)
			}
			if res, err := m2.Run(0); err != nil {
				t.Errorf("%v: run resumed from cycle %d (%q): %v", c.model, cycle, fresh, err)
			} else if got := res.Checksum(); got != want {
				t.Errorf("%v: run resumed from cycle %d (%q) drifted\n  want %s\n  got  %s", c.model, cycle, fresh, want, got)
			}
		}
		for _, st := range c.want {
			if !seen[st] {
				t.Errorf("%v: no snapshot in %d cycles showed: %s", c.model, m.Eng.Now(), st)
			}
		}
		if len(seen) > len(c.want) {
			t.Errorf("%v: snapshots showed %v, more than the expected %q", c.model, seen, c.want)
		}
	}
}
