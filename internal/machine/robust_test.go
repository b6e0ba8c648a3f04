package machine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"memsim/internal/cache"
	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/robust"
)

// asSimError fails the test unless err is a *robust.SimError of the
// wanted kind, and returns it.
func asSimError(t *testing.T, err error, kind robust.Kind) *robust.SimError {
	t.Helper()
	var se *robust.SimError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) is not a *robust.SimError", err, err)
	}
	if se.Kind != kind {
		t.Fatalf("error kind %v, want %v: %v", se.Kind, kind, se)
	}
	return se
}

func TestValidateRejectsNegativeAndNonPowerOfTwo(t *testing.T) {
	ok := cfg16()
	mutate := func(f func(*Config)) Config { c := ok; f(&c); return c }
	bad := map[string]Config{
		"negative MSHRs":       mutate(func(c *Config) { c.MSHRs = -1 }),
		"negative NetBuf":      mutate(func(c *Config) { c.NetBuf = -4 }),
		"negative LoadDelay":   mutate(func(c *Config) { c.LoadDelay = -2 }),
		"negative BranchDelay": mutate(func(c *Config) { c.BranchDelay = -2 }),
		"negative Assoc":       mutate(func(c *Config) { c.Assoc = -2 }),
		"negative SharedWords": mutate(func(c *Config) { c.SharedWords = -8 }),
		"non-pow2 Procs":       mutate(func(c *Config) { c.Procs = 6 }),
		"non-pow2 CacheSize":   mutate(func(c *Config) { c.CacheSize = 3 << 10 }),
		"negative StallCycles": mutate(func(c *Config) { c.StallCycles = -1 }),
		"negative CheckEvery":  mutate(func(c *Config) { c.CheckEvery = -1 }),
		"bad fault prob":       mutate(func(c *Config) { c.Faults = robust.Faults{DelayProb: 1.5, MaxExtraDelay: 1} }),
		"bad fault delay":      mutate(func(c *Config) { c.Faults = robust.Faults{DelayProb: 0.5, MaxExtraDelay: -1} }),
	}
	prog := []isa.Inst{{Op: isa.HALT}}
	for name, c := range bad {
		if _, err := New(c, sameProg(c.Procs, prog)); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if _, err := New(ok, sameProg(ok.Procs, prog)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestWatchdogDetectsRetirementStall arms the watchdog with a window
// far smaller than a miss latency, so the quiet period while CPU 0's
// only load is in flight trips it: the run must fail with a Stall
// error carrying a diagnostic dump that names the in-flight line.
func TestWatchdogDetectsRetirementStall(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.HALT},
	}
	cfg := cfg16()
	cfg.Procs = 4
	cfg.StallCycles = 4
	m, err := New(cfg, onlyCPU0(cfg.Procs, prog))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(1_000_000)
	se := asSimError(t, err, robust.Stall)
	if se.Dump == "" {
		t.Fatal("stall error carries no diagnostic dump")
	}
	for _, want := range []string{"cpu0", "line 0x100", "request", "response"} {
		if !strings.Contains(se.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, se.Dump)
		}
	}
}

// spinOnFlag builds a program that loads addr until it is non-zero —
// with nobody ever setting the flag, a spin that can never end.
func spinOnFlag(addr int64) []isa.Inst {
	return []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: addr},
		{Op: isa.LD, Rd: 4, Rs1: 3}, // pc 1
		{Op: isa.BEQ, Rs1: 4, Rs2: 0, Imm: 1},
		{Op: isa.HALT},
	}
}

// TestEventLimitProducesStructuredErrorAndDump: a livelock that keeps
// generating events — the same wait with an instruction between the
// load and the branch, a shape spin fast-forward does not take — runs
// into the event budget.
func TestEventLimitProducesStructuredErrorAndDump(t *testing.T) {
	cfg := cfg16()
	cfg.Procs = 2
	m, err := New(cfg, onlyCPU0(cfg.Procs, []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3}, // pc 1
		{Op: isa.NOP},
		{Op: isa.BEQ, Rs1: 4, Rs2: 0, Imm: 1},
		{Op: isa.HALT},
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(20_000)
	se := asSimError(t, err, robust.EventLimit)
	if se.Dump == "" || !strings.Contains(se.Dump, "processors") {
		t.Errorf("event-limit error lacks a dump: %v", se)
	}
	if !strings.Contains(se.Error(), "1/2 processors") {
		t.Errorf("error text %q does not report halted processors", se.Error())
	}
}

// TestHopelessSpinIsADeadlock: a processor spin-parked on a flag nobody
// sets has no event pending, so the run ends at once as a deadlock
// whose dump says where the spinner is and which line it watches —
// also with the watchdog and the checker armed, whose ticks would
// otherwise keep the queue alive (and the spinner's virtual progress
// the watchdog quiet) up to the event budget. Un-skipped, the same
// program still burns the budget.
func TestHopelessSpinIsADeadlock(t *testing.T) {
	for _, c := range []struct {
		name              string
		stall, checkEvery int
		noSkip            bool
		want              robust.Kind
		maxEvents, atMost uint64
	}{
		{"no ticks", 0, 0, false, robust.Deadlock, 20_000, 200},
		{"watchdog", 500, 0, false, robust.Deadlock, 20_000, 200},
		{"checker", 0, 300, false, robust.Deadlock, 20_000, 200},
		{"watchdog and checker", 500, 300, false, robust.Deadlock, 20_000, 200},
		{"every iteration live", 500, 300, true, robust.EventLimit, 20_000, 20_000},
	} {
		cfg := cfg16()
		cfg.Procs, cfg.StallCycles, cfg.CheckEvery, cfg.NoSpinSkip = 2, c.stall, c.checkEvery, c.noSkip
		m, err := New(cfg, onlyCPU0(cfg.Procs, spinOnFlag(0x100)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run(c.maxEvents)
		se := asSimError(t, err, c.want)
		if got := m.Eng.Steps(); got > c.atMost {
			t.Errorf("%s: %d events before the %v error, want at most %d", c.name, got, c.want, c.atMost)
		}
		if c.want != robust.Deadlock {
			continue
		}
		if !strings.Contains(se.Error(), "1/2 processors") {
			t.Errorf("%s: error text %q does not report halted processors", c.name, se.Error())
		}
		if want := "pc=1      state=spin        outstanding=0 watching line 0x100"; !strings.Contains(se.Dump, want) {
			t.Errorf("%s: dump does not say %q:\n%s", c.name, want, se.Dump)
		}
	}
}

// busyLoop builds a program that writes line at writeAddr, then keeps
// the machine alive by reading spinAddr iters times before halting.
func busyLoop(writeAddr, spinAddr, iters int64) []isa.Inst {
	return []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: writeAddr},
		{Op: isa.LI, Rd: 5, Imm: 7},
		{Op: isa.ST, Rs1: 3, Rs2: 5},
		{Op: isa.LI, Rd: 6, Imm: spinAddr},
		{Op: isa.LI, Rd: 7, Imm: iters},
		{Op: isa.LD, Rd: 4, Rs1: 6}, // pc 5
		{Op: isa.ADDI, Rd: 7, Rs1: 7, Imm: -1},
		{Op: isa.BNE, Rs1: 7, Rs2: 0, Imm: 5},
		{Op: isa.HALT},
	}
}

// TestInvariantCheckerCatchesInjectedCorruption forces a second
// exclusive copy of a line into another cache mid-run (the test-only
// ForceState hook) and asserts the periodic checker reports it,
// naming the line and the cycle.
func TestInvariantCheckerCatchesInjectedCorruption(t *testing.T) {
	cfg := cfg16()
	cfg.Procs = 4
	cfg.CheckEvery = 10
	m, err := New(cfg, onlyCPU0(cfg.Procs, busyLoop(0x100, 0x108, 60)))
	if err != nil {
		t.Fatal(err)
	}
	const corruptAt = 150
	m.Eng.At(corruptAt, func() {
		m.caches[1].ForceState(0x100, cache.Exclusive, true)
	})
	_, err = m.Run(1_000_000)
	se := asSimError(t, err, robust.Invariant)
	if !se.HasLine || se.Line != 0x100 {
		t.Errorf("violation does not name line 0x100: %v", se)
	}
	if se.Cycle < corruptAt || se.Cycle > corruptAt+uint64(cfg.CheckEvery) {
		t.Errorf("violation at cycle %d, want within one interval of %d", se.Cycle, corruptAt)
	}
	if !strings.Contains(se.Error(), "exclusive in caches") {
		t.Errorf("unexpected violation text: %v", se)
	}
}

// TestProtocolSlipSurfacesAsStructuredError corrupts the owner's copy
// of a dirty line down to Shared; the directory's subsequent recall
// then hits a non-exclusive line, which must surface as a structured
// protocol error from the cache rather than a panic.
func TestProtocolSlipSurfacesAsStructuredError(t *testing.T) {
	cfg := cfg16()
	cfg.Procs = 4
	progs := make([][]isa.Inst, cfg.Procs)
	progs[0] = busyLoop(0x100, 0x108, 200) // owns line 0x100, then lingers
	progs[1] = []isa.Inst{                 // burn time, then write CPU 0's line
		{Op: isa.LI, Rd: 6, Imm: 0x110},
		{Op: isa.LI, Rd: 7, Imm: 60},
		{Op: isa.LD, Rd: 4, Rs1: 6}, // pc 2
		{Op: isa.ADDI, Rd: 7, Rs1: 7, Imm: -1},
		{Op: isa.BNE, Rs1: 7, Rs2: 0, Imm: 2},
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LI, Rd: 5, Imm: 9},
		{Op: isa.ST, Rs1: 3, Rs2: 5},
		{Op: isa.HALT},
	}
	halt := []isa.Inst{{Op: isa.HALT}}
	for i := 2; i < cfg.Procs; i++ {
		progs[i] = halt
	}
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.At(100, func() {
		m.caches[0].ForceState(0x100, cache.Shared, false)
	})
	_, err = m.Run(2_000_000)
	se := asSimError(t, err, robust.Protocol)
	if se.Component != "cache" || se.Unit != 0 {
		t.Errorf("error blamed %s %d, want cache 0: %v", se.Component, se.Unit, se)
	}
	if !se.HasLine || se.Line != 0x100 {
		t.Errorf("error does not name line 0x100: %v", se)
	}
	if se.Dump == "" {
		t.Error("protocol error carries no diagnostic dump")
	}
}

// TestModelsAgreeUnderFaultInjection re-runs the race-free random
// programs of the central agreement property with network fault
// injection enabled and the invariant checker on: every model must
// still complete and produce the same shared memory as its fault-free
// run.
func TestModelsAgreeUnderFaultInjection(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		progs, counters, expect := genRaceFreePrograms(rand.New(rand.NewSource(seed)), 4)
		for _, model := range consistency.Models {
			base := runProgs(t, Config{
				Procs: 4, Model: model, CacheSize: 1024, LineSize: 16, SharedWords: 1 << 14,
			}, progs)
			faulted := runProgs(t, Config{
				Procs: 4, Model: model, CacheSize: 1024, LineSize: 16, SharedWords: 1 << 14,
				CheckEvery: 100,
				Faults:     robust.Faults{Seed: seed, DelayProb: 0.1, MaxExtraDelay: 9},
			}, progs)
			for i, addr := range counters {
				if got := faulted.ReadWord(addr); got != expect[i] {
					t.Fatalf("seed %d %v: counter %#x = %d under faults, want %d",
						seed, model, addr, got, expect[i])
				}
			}
			for i := range base.shared {
				if base.shared[i] != faulted.shared[i] {
					t.Fatalf("seed %d %v: shared word %d differs under faults (%d vs %d)",
						seed, model, i, base.shared[i], faulted.shared[i])
				}
			}
		}
	}
}

// TestFaultInjectionDeterministic pins the other half of the fault
// injector's contract: injection is a pure function of the Faults
// seed. For every model, two runs of the same faulted configuration
// must agree bit-for-bit — same Result checksum (so every cycle count
// and counter matches) and the same post-run diagnostic dump (so the
// component states an operator would debug from match too). This is
// what makes a fault-induced failure reproducible from its config
// alone, and it doubles as a determinism gate for the event core:
// fault delays perturb timing through At/After scheduling, so any
// tie-break drift in the engine would split the twin runs apart.
func TestFaultInjectionDeterministic(t *testing.T) {
	progs, _, _ := genRaceFreePrograms(rand.New(rand.NewSource(7)), 4)
	for _, model := range consistency.Models {
		cfg := Config{
			Procs: 4, Model: model, CacheSize: 1024, LineSize: 16, SharedWords: 1 << 14,
			CheckEvery: 100,
			Faults:     robust.Faults{Seed: 42, DelayProb: 0.2, MaxExtraDelay: 17},
		}
		run := func() (Result, string) {
			progsCopy := make([][]isa.Inst, len(progs))
			copy(progsCopy, progs)
			m, err := New(cfg, progsCopy)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runToQuiescence(m)
			if err != nil {
				t.Fatalf("%v: faulted run failed: %v", model, err)
			}
			return res, m.Diagnostics(0)
		}
		res1, dump1 := run()
		res2, dump2 := run()
		if c1, c2 := res1.Checksum(), res2.Checksum(); c1 != c2 {
			t.Errorf("%v: result checksums differ across identical faulted runs: %s vs %s", model, c1, c2)
		}
		if dump1 != dump2 {
			t.Errorf("%v: diagnostic dumps differ across identical faulted runs:\n--- first\n%s\n--- second\n%s", model, dump1, dump2)
		}
	}
}

func runProgs(t *testing.T, cfg Config, progs [][]isa.Inst) *Machine {
	t.Helper()
	progsCopy := make([][]isa.Inst, len(progs))
	copy(progsCopy, progs)
	m, err := New(cfg, progsCopy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runToQuiescence(m); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("post-run coherence: %v", err)
	}
	return m
}
