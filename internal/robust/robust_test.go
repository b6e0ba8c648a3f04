package robust

import (
	"strings"
	"testing"

	"memsim/internal/sim"
)

func TestSimErrorFormatting(t *testing.T) {
	e := &SimError{
		Kind: Protocol, Component: "memory", Unit: 3, Cycle: 1294,
		Op: "WriteBack", Line: 0x1a0, HasLine: true,
		Detail: "write-back from cache 2 but owner is 5",
	}
	got := e.Error()
	for _, want := range []string{"protocol error", "module 3", "cycle 1294", "WriteBack", "line 0x1a0", "owner is 5"} {
		if !strings.Contains(got, want) {
			t.Errorf("Error() = %q missing %q", got, want)
		}
	}

	// Line 0 is a legal address and must render when HasLine is set,
	// while an unset line must not render at all.
	withZero := &SimError{Kind: Invariant, Component: "machine", Unit: -1, HasLine: true, Detail: "x"}
	if !strings.Contains(withZero.Error(), "line 0x0") {
		t.Errorf("HasLine with line 0 not rendered: %q", withZero.Error())
	}
	without := &SimError{Kind: Deadlock, Component: "machine", Unit: -1, Detail: "x"}
	if strings.Contains(without.Error(), "line") {
		t.Errorf("line rendered without HasLine: %q", without.Error())
	}
}

func TestRaiseUnwindsAsTypedError(t *testing.T) {
	defer func() {
		se, ok := Recovered(recover())
		if !ok || se == nil {
			t.Fatal("Raisef did not panic with a *SimError")
		}
		if se.Kind != Protocol || se.Component != "cache" || se.Unit != 2 || se.Line != 0x40 {
			t.Errorf("unexpected raise payload: %+v", se)
		}
	}()
	Raisef("cache", 2, 10, "RecallInv", 0x40, "boom %d", 1)
}

// tick arms w and drives Check once per window from a scheduled event
// that schedules itself again while Check says so, as the machine does.
func tick(eng *sim.Engine, w *Watchdog) {
	w.Arm()
	var h sim.Handler
	h = func(d *sim.EventDesc) {
		if w.Check() {
			eng.ScheduleAfter(w.Window, h, *d)
		}
	}
	eng.ScheduleAfter(w.Window, h, sim.EventDesc{Comp: sim.CompMachine})
}

func TestWatchdogFiresOnlyWithoutProgress(t *testing.T) {
	var eng sim.Engine
	progress := uint64(0)
	stalls := 0
	w := &Watchdog{
		Window:   10,
		Progress: func() uint64 { return progress },
		OnStall:  func(window sim.Cycle, p uint64) { stalls++ },
	}
	// Make progress in each of 5 windows (ahead of the window's tick),
	// then stop.
	var work func()
	work = func() {
		if eng.Now() <= 50 {
			progress++
			eng.After(10, work)
		}
	}
	eng.After(10, work)
	tick(&eng, w)
	eng.Run(nil)
	if stalls != 1 {
		t.Errorf("watchdog fired %d times, want exactly 1 (after progress stopped)", stalls)
	}
	if progress != 5 || eng.Now() != 60 {
		t.Errorf("progress %d, last tick at cycle %d: want the stall in the first silent window (5, cycle 60) and no tick after it", progress, eng.Now())
	}
}

func TestWatchdogStopsWhenDone(t *testing.T) {
	var eng sim.Engine
	stalls := 0
	w := &Watchdog{
		Window:   5,
		Progress: func() uint64 { return 0 },
		Done:     func() bool { return true },
		OnStall:  func(sim.Cycle, uint64) { stalls++ },
	}
	tick(&eng, w)
	eng.Run(nil)
	if stalls != 0 {
		t.Errorf("watchdog fired %d times on a finished run", stalls)
	}
	if eng.Steps() != 1 {
		t.Errorf("%d ticks on a finished run, want the one that saw it done", eng.Steps())
	}
}

func TestInjectorDeterministicAndBounded(t *testing.T) {
	cfg := Faults{Seed: 42, DelayProb: 0.3, MaxExtraDelay: 7}
	a, b := new(Injector), new(Injector)
	a.Reset(cfg)
	b.Reset(cfg)
	sawDelay := false
	for i := 0; i < 10_000; i++ {
		da, db := a.ExtraDelay(), b.ExtraDelay()
		if da != db {
			t.Fatalf("draw %d: injectors diverged (%d vs %d)", i, da, db)
		}
		if da < 0 || da > cfg.MaxExtraDelay {
			t.Fatalf("draw %d: delay %d outside [0,%d]", i, da, cfg.MaxExtraDelay)
		}
		if da > 0 {
			sawDelay = true
		}
	}
	if !sawDelay {
		t.Error("no delay injected in 10k draws at p=0.3")
	}
	if a.Injected == 0 || a.Extra < a.Injected {
		t.Errorf("counters inconsistent: injected=%d extra=%d", a.Injected, a.Extra)
	}

	var nilInj *Injector
	if nilInj.ExtraDelay() != 0 {
		t.Error("nil injector injected a delay")
	}
	if new(Injector).ExtraDelay() != 0 {
		t.Error("disabled injector injected a delay")
	}
}

func TestFaultsValidate(t *testing.T) {
	for _, bad := range []Faults{
		{DelayProb: -0.1, MaxExtraDelay: 4},
		{DelayProb: 1.5, MaxExtraDelay: 4},
		{DelayProb: 0.5, MaxExtraDelay: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := (Faults{Seed: 9, DelayProb: 0.5, MaxExtraDelay: 4}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (Faults{}).Enabled() {
		t.Error("zero Faults reports enabled")
	}
}
