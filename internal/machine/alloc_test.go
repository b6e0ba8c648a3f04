package machine_test

import (
	"errors"
	"runtime"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/litmus"
	"memsim/internal/machine"
	"memsim/internal/progb"
	"memsim/internal/sim"
	"memsim/internal/workloads"
)

// The host-allocation budgets (DESIGN.md §9). The engine's zero-alloc
// test (internal/sim) covers the event queue alone; these cover the
// assembled machine, where a per-transaction make in the directory and
// a 64 KB event pool per two-processor machine once hid for ten PRs.

// contendedProgram is sixteen processors' worth of the paper's
// synchronization: take one lock, bump a shared counter, release, cross
// a barrier; rounds times. Lock and barrier lines each collect every
// processor behind one directory entry.
func contendedProgram(a *workloads.Alloc, rounds int) []isa.Inst {
	lock, counter := a.Line(), a.Line()
	bar := workloads.AllocBarrier(a)
	b := progb.New()
	lr, cr, v := b.Alloc(), b.Alloc(), b.Alloc()
	i, iEnd, sense := b.Alloc(), b.Alloc(), b.Alloc()
	b.LiU(lr, lock)
	b.LiU(cr, counter)
	b.Li(sense, 0)
	b.Li(iEnd, int64(rounds))
	b.ForRange(i, 0, iEnd, 1, func() {
		workloads.EmitLock(b, lr)
		b.Ld(v, cr, 0)
		b.Addi(v, v, 1)
		b.St(cr, 0, v)
		workloads.EmitUnlock(b, lr)
		workloads.EmitBarrier(b, bar, sense)
	})
	b.Halt()
	return b.MustBuild()
}

// TestSteadyStateAllocs: once every pool, queue and waiter list has
// reached its high-water mark, simulating costs no host allocation at
// all, however contended the directory. Any heap allocation in a
// window is one that scales with simulated time.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		procs  = 16
		warmup = 150_000 // cycles: dozens of lock hand-offs per processor and barrier episodes
		window = 25_000
	)
	for _, model := range []consistency.Model{consistency.SC1, consistency.RC} {
		t.Run(model.String(), func(t *testing.T) {
			a := workloads.NewAlloc()
			progs := make([][]isa.Inst, procs)
			progs[0] = contendedProgram(a, 1_000_000)
			m, err := machine.New(machine.Config{
				Procs: procs, Model: model, CacheSize: 1 << 10, LineSize: 16,
				SharedWords: a.WordsUsed(),
			}, progs)
			if err != nil {
				t.Fatal(err)
			}
			until := sim.Cycle(0)
			advance := func(by sim.Cycle) {
				until += by
				if _, err := m.RunControlled(machine.RunControl{Until: until}); !errors.Is(err, machine.ErrPaused) {
					t.Fatalf("run to cycle %d: %v, want a pause", until, err)
				}
			}
			advance(warmup)
			before := m.ResultNow()
			if avg := testing.AllocsPerRun(8, func() { advance(window) }); avg != 0 {
				t.Errorf("%v heap allocations per %d-cycle window, want 0", avg, window)
			}
			// The windows must have been the contended regime, not a
			// machine asleep behind one lock holder.
			after := m.ResultNow()
			var reqs, queued uint64
			for i := range after.Modules {
				reqs += after.Modules[i].Reads + after.Modules[i].Writes - before.Modules[i].Reads - before.Modules[i].Writes
				queued += after.Modules[i].QueuedCycles - before.Modules[i].QueuedCycles
			}
			if reqs < 1000 || queued == 0 {
				t.Errorf("measured windows served %d directory requests with %d queued cycles: not a contended run", reqs, queued)
			}
		})
	}
}

// allocatedBytes returns the heap bytes one call of f allocates,
// averaged over a few calls after one unmeasured.
func allocatedBytes(f func()) uint64 {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestConstructionBudget: the conformance checkers run a two-processor
// machine some 9 000 times a pass, so what a run costs beyond its
// simulation is their running cost. Four figures. A warm machine reset
// and run again allocates its Result and the directory entries of the
// lines it touches, nothing that scales with the machine; reset and
// driven — what litmus.Run pays per run, reading its outcome from
// registers and memory — it allocates the directory entries alone. A
// machine made anew still costs 16 KB of shared image and 8 KB of
// calendar ring before anything else, which is what litmus.Run no
// longer pays per run; and a fresh Setup + Execute is that plus the
// run's programs and replay record. The ceilings are what the commits
// that set them measured (720 B, 224 B, 33 816 B and 37 872 B with
// go1.24 on amd64) plus a quarter — for Reset + Drive, a quarter over
// the 304 B it measures under -race, still well short of a Result;
// Setup + Execute measured 38 344 B while Execute still built one. The
// commit that set the first and third took the closure per network
// port and per MSHR, and the pooled event records, out of machine.New
// (35 000 B and 39 832 B before it). Before Reset, when a run's
// programs went through assembly text, Setup + Execute measured
// 43 304 B — and every run paid it.
func TestConstructionBudget(t *testing.T) {
	sb, err := litmus.TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	halt := []isa.Inst{{Op: isa.HALT}}
	cfg, progs := litmusRun(t, sb, consistency.RC, 1, 0)
	warm := new(machine.Machine)

	resetBytes := allocatedBytes(func() {
		if err := warm.Reset(cfg, progs); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	driveBytes := allocatedBytes(func() {
		if err := warm.Reset(cfg, progs); err != nil {
			t.Fatal(err)
		}
		if err := warm.Drive(machine.RunControl{}); err != nil {
			t.Fatal(err)
		}
	})
	newBytes := allocatedBytes(func() {
		if _, err := machine.New(cfg, [][]isa.Inst{halt, halt}); err != nil {
			t.Fatal(err)
		}
	})
	runBytes := allocatedBytes(func() {
		rs, err := litmus.Setup(sb, consistency.RC, 1, consistency.MutNone)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Execute(nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Reset+Run %d B, Reset+Drive %d B, machine.New %d B, litmus Setup+Execute %d B",
		resetBytes, driveBytes, newBytes, runBytes)
	const resetCeiling, driveCeiling, newCeiling, runCeiling = 900, 380, 42_270, 47_340
	if resetBytes > resetCeiling {
		t.Errorf("Reset and run of a warm machine (sb/RC seed 1) allocates %d B, ceiling %d", resetBytes, resetCeiling)
	}
	if driveBytes > driveCeiling {
		t.Errorf("Reset and Drive of a warm machine (sb/RC seed 1) allocates %d B, ceiling %d", driveBytes, driveCeiling)
	}
	if newBytes > newCeiling {
		t.Errorf("machine.New for %+v allocates %d B, ceiling %d", cfg, newBytes, newCeiling)
	}
	if runBytes > runCeiling {
		t.Errorf("litmus Setup+Execute (sb/RC seed 1) allocates %d B, ceiling %d", runBytes, runCeiling)
	}
}
