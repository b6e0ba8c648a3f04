package cpu

import (
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/memory"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// spinProg loads the flag at 0x100 until it is non-zero, then halts:
// the load-and-branch-back shape spinTry looks for.
var spinProg = []isa.Inst{
	{Op: isa.LI, Rd: 3, Imm: 0x100},
	{Op: isa.LD, Rd: 4, Rs1: 3}, // pc 1
	{Op: isa.BEQ, Rs1: 4, Rs2: 0, Imm: 1},
	{Op: isa.HALT},
}

// spinRig starts spinProg and returns once the first fill is in and a
// few iterations have had time to run.
func spinRig(t *testing.T, noSkip bool) *rig {
	t.Helper()
	r := newRig(t, consistency.SC1, spinProg)
	if noSkip {
		r.cpu.spinFF = false
	}
	r.cpu.Start()
	r.eng.Run(func() bool { return r.eng.Now() >= 60 })
	return r
}

// TestSpinParkHasNothingPending: a parked spinner costs the engine
// nothing. With the flag never set the queue drains, the processor is
// not halted, and it says which line it watches; the un-skipped
// processor keeps an event pending for ever.
func TestSpinParkHasNothingPending(t *testing.T) {
	r := spinRig(t, false)
	if !r.eng.RunLimit(nil, 1000) || r.eng.Pending() {
		t.Fatalf("a parked spinner still has events pending at cycle %d", r.eng.Now())
	}
	if r.cpu.Halted() || r.cpu.ParkedReason() != "spin" || r.cpu.SpinLine() != 0x100 {
		t.Errorf("halted=%v reason=%q line=%#x, want a spin park on line 0x100",
			r.cpu.Halted(), r.cpu.ParkedReason(), r.cpu.SpinLine())
	}
	if live := spinRig(t, true); live.eng.RunLimit(nil, 1000) {
		t.Error("the un-skipped spinner let the queue drain")
	}
}

// TestSpinWakeEqualsLive sets the flag and invalidates the line at each
// cycle of two whole periods, so the notice lands on an iteration
// boundary, just after one and everywhere between: the woken processor
// must end with the counters, the halt cycle and the cache statistics
// of one that ran every iteration, in fewer events.
func TestSpinWakeEqualsLive(t *testing.T) {
	for at := sim.Cycle(200); at < 216; at++ {
		run := func(noSkip bool) (*rig, uint64) {
			r := spinRig(t, noSkip)
			r.eng.At(at, func() {
				r.mem[0x100] = 1
				r.cache.Receive(memory.Msg{Kind: memory.Invalidate, Line: 0x100})
			})
			if !r.eng.RunLimit(nil, 100_000) || !r.cpu.Halted() {
				t.Fatalf("invalidate at %d, noSkip=%v: processor did not halt (pc %d, %s)", at, noSkip, r.cpu.PC(), r.cpu.ParkedReason())
			}
			return r, r.eng.Steps()
		}
		live, liveSteps := run(true)
		skip, skipSteps := run(false)
		if live.cpu.Stats() != skip.cpu.Stats() || live.cache.Stats() != skip.cache.Stats() || live.cpu.SyncInstrs() != skip.cpu.SyncInstrs() {
			t.Errorf("invalidate at %d:\n live %+v %+v\n skip %+v %+v", at, live.cpu.Stats(), live.cache.Stats(), skip.cpu.Stats(), skip.cache.Stats())
		}
		if skipSteps >= liveSteps {
			t.Errorf("invalidate at %d: %d events skipped, %d live", at, skipSteps, liveSteps)
		}
	}
}

// TestSpinNoticeInProcessorPhase: the line watch is a delivery's to
// fire. If a processor's event changes the watched line in the cycle
// the spinner's next load is due, that load may already belong before
// it, so the notice is a protocol error, not a silently late wake. In
// any other cycle the wake is still ahead and the notice is taken.
func TestSpinNoticeInProcessorPhase(t *testing.T) {
	notify := func(r *rig, at sim.Cycle) (err *robust.SimError) {
		r.eng.Schedule(at, func(*sim.EventDesc) {
			defer func() { err, _ = robust.Recovered(recover()) }()
			r.cache.Receive(memory.Msg{Kind: memory.Invalidate, Line: 0x100})
		}, sim.EventDesc{Comp: sim.CompCPU, Kind: cpuEvRun, Unit: 1})
		r.eng.Step() // the parked spinner has nothing pending: this is the notifier
		return err
	}
	r := spinRig(t, false)
	r.eng.Run(nil)
	boundary := r.cpu.core.SpinT0 + 40*r.cpu.core.SpinPeriod
	if err := notify(r, boundary); err == nil || err.Kind != robust.Protocol || err.Unit != 0 || err.Line != 0x100 {
		t.Errorf("notice from a processor event in a boundary cycle: %v, want a protocol error of cpu 0 on line 0x100", err)
	}
	r = spinRig(t, false)
	r.eng.Run(nil)
	if err := notify(r, boundary+1); err != nil {
		t.Errorf("notice from a processor event between boundaries: %v", err)
	}
	if !r.cpu.core.SpinStale || !r.cpu.core.Scheduled || r.eng.NextTime() != boundary+r.cpu.core.SpinPeriod {
		t.Errorf("stale=%v scheduled=%v, want the wake at the next boundary %d", r.cpu.core.SpinStale, r.cpu.core.Scheduled, boundary+r.cpu.core.SpinPeriod)
	}
}
