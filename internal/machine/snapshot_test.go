package machine

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/robust"
)

// snapCfg is a small configuration that still exercises every
// subsystem: misses, evictions, MSHR pressure, network back-pressure.
func snapCfg(model consistency.Model) Config {
	return Config{Procs: 4, Model: model, CacheSize: 1024, LineSize: 16, SharedWords: 1 << 14}
}

// pauseAt runs a fresh machine until the pause cycle, requiring that
// the run actually pauses (the caller picks cycles below the full run
// length).
func pauseAt(t *testing.T, m *Machine, at uint64) {
	t.Helper()
	_, err := m.RunControlled(RunControl{Until: at})
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("run to cycle %d: want ErrPaused, got %v", at, err)
	}
}

// roundTrip snapshots m through a file and restores into a fresh
// machine built by build.
func roundTrip(t *testing.T, m *Machine, build func() *Machine) *Machine {
	t.Helper()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	path := filepath.Join(t.TempDir(), "snap.mcsp")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	read, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := build()
	if err := m2.Restore(read); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return m2
}

// TestSnapshotRoundTripAllModels is the central property: for every
// consistency model, pausing a run at an arbitrary cycle, serializing
// the complete machine state through a file, restoring into a fresh
// machine and continuing must reproduce the uninterrupted run's Result
// checksum bit-for-bit.
func TestSnapshotRoundTripAllModels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for seed := int64(1); seed <= 2; seed++ {
		progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(seed)), 4)
		for _, model := range consistency.Models {
			cfg := snapCfg(model)
			build := func() *Machine {
				progsCopy := make([][]isa.Inst, len(progs))
				copy(progsCopy, progs)
				m, err := New(cfg, progsCopy)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			full, err := build().Run(0)
			if err != nil {
				t.Fatalf("seed %d %v: uninterrupted run: %v", seed, model, err)
			}
			want := full.Checksum()

			// Three random pause points strictly inside the run.
			for trial := 0; trial < 3; trial++ {
				at := 1 + uint64(rng.Int63n(int64(full.Cycles-1)))
				m1 := build()
				pauseAt(t, m1, at)
				m2 := roundTrip(t, m1, build)
				res, err := m2.Run(0)
				if err != nil {
					t.Fatalf("seed %d %v: resumed run (paused at %d): %v", seed, model, at, err)
				}
				if got := res.Checksum(); got != want {
					t.Errorf("seed %d %v: checksum after restore at cycle %d drifted\n  want %s\n  got  %s",
						seed, model, at, want, got)
				}
			}
		}
	}
}

// TestSnapshotMidMissInterlockSummary: the processor's interlock
// summary is derived state, never saved. A snapshot taken while a
// register waits on a miss must restore into a machine whose summary
// the invariant checker accepts at once and every CheckEvery cycles
// after, and whose run ends on the uninterrupted checksum.
func TestSnapshotMidMissInterlockSummary(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(8)), 4)
	for _, model := range consistency.Models {
		cfg := snapCfg(model)
		cfg.CheckEvery = 7
		build := func() *Machine {
			m, err := New(cfg, append([][]isa.Inst(nil), progs...))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		full, err := build().Run(0)
		if err != nil {
			t.Fatalf("%v: uninterrupted run: %v", model, err)
		}
		m1 := build()
		pending := func(snap *Snapshot) bool {
			for _, c := range snap.CPUs {
				for _, p := range c.Core.RegPending {
					if p {
						return true
					}
				}
			}
			return false
		}
		for at := uint64(10); ; at++ {
			if at >= uint64(full.Cycles) {
				t.Fatalf("%v: no register pending at any cycle of the run", model)
			}
			pauseAt(t, m1, at)
			if snap, err := m1.Snapshot(); err != nil {
				t.Fatal(err)
			} else if pending(snap) {
				break
			}
		}
		m2 := roundTrip(t, m1, build)
		if err := m2.CheckNow(); err != nil {
			t.Fatalf("%v: restored at cycle %d: %v", model, m2.Eng.Now(), err)
		}
		res, err := m2.Run(0)
		if err != nil {
			t.Fatalf("%v: resumed run: %v", model, err)
		}
		if res.Checksum() != full.Checksum() {
			t.Errorf("%v: checksum after a mid-miss restore at cycle %d drifted", model, m1.Eng.Now())
		}
	}
}

// TestSnapshotChain restores through several successive pauses — each
// continuation is itself snapshotted — and still converges on the
// uninterrupted checksum, proving restore composes.
func TestSnapshotChain(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(5)), 4)
	cfg := snapCfg(consistency.WO1)
	build := func() *Machine {
		progsCopy := make([][]isa.Inst, len(progs))
		copy(progsCopy, progs)
		m, err := New(cfg, progsCopy)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	full, err := build().Run(0)
	if err != nil {
		t.Fatal(err)
	}
	m := build()
	for _, frac := range []uint64{5, 3, 2} { // pause at 1/5, 1/3, 1/2 of the run
		at := uint64(full.Cycles) / frac
		if m.Eng.Now() >= at {
			continue
		}
		pauseAt(t, m, at)
		m = roundTrip(t, m, build)
	}
	res, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum() != full.Checksum() {
		t.Errorf("chained restore checksum drifted\n  want %s\n  got  %s", full.Checksum(), res.Checksum())
	}
}

// TestSnapshotSameMachineResume pins that pausing and continuing the
// SAME machine (no serialization) is also bit-identical, isolating the
// pause mechanism from the snapshot encoding.
func TestSnapshotSameMachineResume(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(9)), 4)
	cfg := snapCfg(consistency.SC1)
	progsCopy := func() [][]isa.Inst {
		c := make([][]isa.Inst, len(progs))
		copy(c, progs)
		return c
	}
	m1, err := New(cfg, progsCopy())
	if err != nil {
		t.Fatal(err)
	}
	full, err := m1.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(cfg, progsCopy())
	if err != nil {
		t.Fatal(err)
	}
	pauseAt(t, m2, uint64(full.Cycles)/2)
	res, err := m2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum() != full.Checksum() {
		t.Errorf("same-machine resume checksum drifted\n  want %s\n  got  %s", full.Checksum(), res.Checksum())
	}
}

// TestSnapshotWithWatchdogCheckerAndFaults round-trips a run with the
// stall watchdog, the periodic invariant checker and network fault
// injection all enabled: the watchdog window baseline, the checker
// cadence and the injector's stream position must all survive the
// snapshot (any slip would shift fault delays and change the checksum).
func TestSnapshotWithWatchdogCheckerAndFaults(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(11)), 4)
	for _, model := range consistency.Models {
		cfg := snapCfg(model)
		cfg.StallCycles = 50_000
		cfg.CheckEvery = 137
		cfg.Faults = robust.Faults{Seed: 3, DelayProb: 0.15, MaxExtraDelay: 11}
		build := func() *Machine {
			progsCopy := make([][]isa.Inst, len(progs))
			copy(progsCopy, progs)
			m, err := New(cfg, progsCopy)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		full, err := build().Run(0)
		if err != nil {
			t.Fatalf("%v: faulted run: %v", model, err)
		}
		for _, frac := range []uint64{4, 2} {
			m1 := build()
			pauseAt(t, m1, uint64(full.Cycles)/frac)
			m2 := roundTrip(t, m1, build)
			res, err := m2.Run(0)
			if err != nil {
				t.Fatalf("%v: resumed faulted run: %v", model, err)
			}
			if res.Checksum() != full.Checksum() {
				t.Errorf("%v: faulted round-trip checksum drifted at 1/%d\n  want %s\n  got  %s",
					model, frac, full.Checksum(), res.Checksum())
			}
		}
	}
}

// TestSnapshotFileCorruption pins the file format's failure modes:
// corruption, truncation, bad magic and version skew are all detected
// before decoding, and a missing file errors cleanly.
func TestSnapshotFileCorruption(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(2)), 4)
	m, err := New(snapCfg(consistency.SC1), progs)
	if err != nil {
		t.Fatal(err)
	}
	pauseAt(t, m, 500)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "good.mcsp")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name, wantErr string, alter func([]byte) []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, alter(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshotFile(p); err == nil {
			t.Errorf("%s: corrupt snapshot decoded without error", name)
		} else if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantErr)
		}
	}
	mutate("flipped.mcsp", "checksum", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	mutate("truncated.mcsp", "truncated", func(b []byte) []byte { return b[:len(b)-7] })
	mutate("magic.mcsp", "not a snapshot", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("version.mcsp", "format version 99", func(b []byte) []byte { b[4] = 99; return b })
	// Version skew: everything about the file is valid (the checksum
	// covers the payload, not the header) except that it says an older
	// format: 1, whose payload this build no longer decodes, or 2 or 3,
	// whose payload it would decode into another machine — one that runs
	// a cycle's events in another order and has no ghost event to
	// resume, or (gob drops a port's busy flag and leaves the cycle it
	// frees zero) whose network ports free another way; the error says so.
	mutate("v1.mcsp", "format version 1, want 4", func(b []byte) []byte { b[4] = 1; return b })
	mutate("v2.mcsp", "format version 2, want 4 (a version-2 run ordered a cycle's events by creation and parked spinners behind ghost events",
		func(b []byte) []byte { b[4] = 2; return b })
	mutate("v3.mcsp", "format version 3, want 4 (a version-3 run freed every network port with an event of its own",
		func(b []byte) []byte { b[4] = 3; return b })
	if _, err := ReadSnapshotFile(filepath.Join(dir, "missing.mcsp")); err == nil {
		t.Error("missing snapshot file read without error")
	}
}

// TestRestoreValidation pins Restore's compatibility checks: a used
// machine, a different configuration and different programs are all
// rejected.
func TestRestoreValidation(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(3)), 4)
	cfg := snapCfg(consistency.SC1)
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	pauseAt(t, m, 400)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Restore(snap); err == nil {
		t.Error("Restore into a machine that has already run succeeded")
	}
	cfg2 := cfg
	cfg2.LineSize = 32
	cfg2.CacheSize = 2048
	if m2, err := New(cfg2, progs); err != nil {
		t.Fatal(err)
	} else if err := m2.Restore(snap); err == nil {
		t.Error("Restore into a machine with a different config succeeded")
	}
	progs2, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(77)), 4)
	if m3, err := New(cfg, progs2); err != nil {
		t.Fatal(err)
	} else if err := m3.Restore(snap); err == nil {
		t.Error("Restore into a machine with different programs succeeded")
	}

	// The processor/cache relink: every saved operation must land in
	// the MSHR that waits on it, and exactly the awaited one be marked.
	// Find a snapshot where some processor has two misses in flight and
	// awaits one of them, then break each link in turn.
	cfg.Model = consistency.RC
	mRC, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	cpu, awaited, other := -1, -1, -1
	for at := uint64(20); cpu < 0; at += 3 {
		pauseAt(t, mRC, at)
		if snap, err = mRC.Snapshot(); err != nil {
			t.Fatal(err)
		}
		for i, c := range snap.CPUs {
			if len(c.Ops) == 2 && c.Ops[0].MSHR >= 0 && c.Ops[1].MSHR >= 0 && c.Ops[0].Awaited != c.Ops[1].Awaited {
				cpu, awaited, other = i, 0, 1
				if c.Ops[1].Awaited {
					awaited, other = 1, 0
				}
			}
		}
	}
	ops := snap.CPUs[cpu].Ops
	good := append(ops[:0:0], ops...)
	for _, c := range []struct {
		name, wantErr string
		corrupt       func()
	}{
		{"awaited op unmarked", "awaiting=true", func() { ops[awaited].Awaited = false }},
		{"awaited op missing", "awaiting=true", func() { snap.CPUs[cpu].Ops = ops[other : other+1] }},
		{"two ops awaited", "two restored ops claim", func() { ops[other].Awaited = true }},
		{"two ops in one MSHR", "holds no unbound demand miss", func() { ops[other].MSHR = ops[awaited].MSHR }},
		{"MSHR out of range", "binder for MSHR", func() { ops[other].MSHR = 99 }},
		{"retired op in an MSHR", "marked retired", func() { ops[other].Op.Retired = true }},
	} {
		c.corrupt()
		m4, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if err := m4.Restore(snap); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Restore returned %v, want an error mentioning %q", c.name, err, c.wantErr)
		}
		snap.CPUs[cpu].Ops = ops
		copy(ops, good)
	}
	m5, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m5.Restore(snap); err != nil {
		t.Errorf("Restore of the repaired snapshot: %v", err)
	}
}

// TestRunControlledCancellation pins the graceful-interruption
// contract: a canceled context stops the run with a Canceled SimError
// that unwraps to the context error, and a final checkpoint is taken.
func TestRunControlledCancellation(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(4)), 4)
	m, err := New(snapCfg(consistency.WO2), progs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpts := 0
	_, err = m.RunControlled(RunControl{Ctx: ctx, Checkpoint: func() error { ckpts++; return nil }})
	var se *robust.SimError
	if !errors.As(err, &se) || se.Kind != robust.Canceled {
		t.Fatalf("canceled run: want Canceled SimError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("Canceled SimError does not unwrap to context.Canceled")
	}
	if se.Dump == "" {
		t.Error("Canceled SimError carries no diagnostic dump")
	}
	if ckpts != 1 {
		t.Errorf("final checkpoint on cancellation ran %d times, want 1", ckpts)
	}
}

// TestPeriodicCheckpointCallback verifies the checkpoint cadence fires
// repeatedly and that a mid-run checkpoint taken by the callback itself
// restores to the uninterrupted checksum.
func TestPeriodicCheckpointCallback(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(6)), 4)
	cfg := snapCfg(consistency.SC2)
	build := func() *Machine {
		progsCopy := make([][]isa.Inst, len(progs))
		copy(progsCopy, progs)
		m, err := New(cfg, progsCopy)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	full, err := build().Run(0)
	if err != nil {
		t.Fatal(err)
	}

	m := build()
	var snaps []*Snapshot
	res, err := m.RunControlled(RunControl{
		CheckpointEvery: uint64(full.Cycles) / 5,
		Checkpoint: func() error {
			s, err := m.Snapshot()
			if err != nil {
				return err
			}
			snaps = append(snaps, s)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum() != full.Checksum() {
		t.Errorf("checkpointed run checksum drifted (checkpoint hooks must not perturb timing)")
	}
	if len(snaps) < 3 {
		t.Fatalf("expected several periodic checkpoints, got %d", len(snaps))
	}
	// Restore from the middle checkpoint and re-converge.
	m2 := build()
	if err := m2.Restore(snaps[len(snaps)/2]); err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Checksum() != full.Checksum() {
		t.Errorf("restore from periodic checkpoint drifted\n  want %s\n  got  %s", full.Checksum(), res2.Checksum())
	}
}

// TestWatchdogStallSurvivesRestore guards the stall watchdog's state
// across a snapshot/restore round trip. The watchdog counts quiescent
// cycles toward StallCycles; if that progress (or the last-progress
// marker it measures from) were dropped or reset by Restore, a
// restored run would fire the stall verdict at a different cycle than
// the uninterrupted run — or never. The test deadlocks one CPU on a
// load whose line is never supplied (LD against an address with no
// store in flight would normally fill; here the stall comes from the
// watchdog's quiescence bound being hit first), records the stall
// cycle of the uninterrupted run, then pauses at several points
// before the stall, round-trips through snapshot bytes, and requires
// the restored machine to report the identical stall cycle.
func TestWatchdogStallSurvivesRestore(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.ADD, Rd: 6, Rs1: 4, Rs2: 4},
		{Op: isa.HALT},
	}
	cfg := snapCfg(0)
	cfg.Procs = 4
	cfg.StallCycles = 4 // tight bound: the fill takes longer than this
	build := func() *Machine {
		m, err := New(cfg, onlyCPU0(cfg.Procs, prog))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	_, err := build().Run(1_000_000)
	se := asSimError(t, err, robust.Stall)

	for _, pause := range []uint64{1, 2, 3, 5, 7} {
		if pause >= uint64(se.Cycle) {
			continue
		}
		m1 := build()
		_, perr := m1.RunControlled(RunControl{Until: pause})
		if !errors.Is(perr, ErrPaused) {
			t.Fatalf("pause at %d: %v", pause, perr)
		}
		m2 := roundTrip(t, m1, build)
		_, rerr := m2.Run(1_000_000)
		se2 := asSimError(t, rerr, robust.Stall)
		if se2.Cycle != se.Cycle {
			t.Errorf("pause %d: restored watchdog stalled at cycle %d, uninterrupted run at %d",
				pause, se2.Cycle, se.Cycle)
		}
	}
}
