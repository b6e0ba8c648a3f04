package sim

import (
	"strings"
	"testing"
)

// recorder is a handler that appends each event's A field to order.
func recorder(order *[]uint64) Handler {
	return func(d *EventDesc) { *order = append(*order, d.A) }
}

// resolver resolves every descriptor to one recording handler.
func resolver(order *[]uint64) func(EventDesc) (Handler, error) {
	h := recorder(order)
	return func(EventDesc) (Handler, error) { return h, nil }
}

func nopHandler(*EventDesc) {}

// TestEngineSaveLoadRoundTrip schedules a mix of near events (ring),
// far events (overflow heap) and same-cycle ties, executes a prefix,
// saves, loads into a fresh engine and verifies the remaining events
// run in the identical order at identical cycles.
func TestEngineSaveLoadRoundTrip(t *testing.T) {
	var e1 Engine
	var got1 []uint64
	rec := recorder(&got1)
	desc := func(id uint64) EventDesc { return EventDesc{Comp: CompMachine, Kind: 1, A: id} }

	// Ties at cycle 10, spread in the ring, and two beyond the horizon.
	e1.Schedule(10, rec, desc(1))
	e1.Schedule(10, rec, desc(2))
	e1.Schedule(3, rec, desc(3))
	e1.Schedule(700, rec, desc(4))
	e1.Schedule(5000, rec, desc(5))
	e1.Schedule(2100, rec, desc(6))

	// Execute the first event only, then snapshot mid-flight.
	if !e1.Step() {
		t.Fatal("no event to execute")
	}
	st, err := e1.Save()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != e1.Now() || len(st.Events) != 5 {
		t.Fatalf("saved state: now=%d events=%d, want now=%d events=5", st.Now, len(st.Events), e1.Now())
	}

	// Finish the original run.
	for e1.Step() {
	}

	var e2 Engine
	var got2 []uint64
	got2 = append(got2, got1[0]) // the event executed before the snapshot
	if err := e2.Load(st, resolver(&got2)); err != nil {
		t.Fatal(err)
	}
	if e2.Now() != st.Now {
		t.Fatalf("loaded Now %d, want %d", e2.Now(), st.Now)
	}
	for e2.Step() {
	}
	if len(got1) != len(got2) {
		t.Fatalf("restored engine ran %d events, original %d", len(got2), len(got1))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("execution order diverged at %d: original %v, restored %v", i, got1, got2)
		}
	}
	if e2.Now() != e1.Now() {
		t.Errorf("final cycles differ: original %d, restored %d", e1.Now(), e2.Now())
	}
}

// TestEngineSeqContinuesAfterLoad verifies the restored engine's
// insertion counter continues from the saved value, so events scheduled
// after a restore tie-break exactly as they would have in the original
// run.
func TestEngineSeqContinuesAfterLoad(t *testing.T) {
	var e1 Engine
	d := EventDesc{Comp: CompMachine, Kind: 1}
	e1.Schedule(50, nopHandler, d)
	e1.Schedule(50, nopHandler, d)
	st, err := e1.Save()
	if err != nil {
		t.Fatal(err)
	}

	var e2 Engine
	var order []uint64
	if err := e2.Load(st, resolver(&order)); err != nil {
		t.Fatal(err)
	}
	// A new event at the same cycle must run after both restored ones.
	ran := false
	e2.Schedule(50, func(*EventDesc) {
		ran = true
		if len(order) != 2 {
			t.Errorf("new event ran before %d restored events at the same cycle", 2-len(order))
		}
	}, d)
	for e2.Step() {
	}
	if !ran {
		t.Fatal("post-load event never ran")
	}
}

// TestEngineSaveRejectsUntaggedEvents pins the auditability contract:
// an event scheduled through plain At/After cannot be serialized and
// Save must say so rather than drop it.
func TestEngineSaveRejectsUntaggedEvents(t *testing.T) {
	var e Engine
	e.After(5, func() {})
	_, err := e.Save()
	if err == nil {
		t.Fatal("Save succeeded with an untagged pending event")
	}
	if !strings.Contains(err.Error(), "no descriptor") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// TestEngineLoadRejectsUsedEngine pins that Load requires a fresh
// engine.
func TestEngineLoadRejectsUsedEngine(t *testing.T) {
	var e1 Engine
	e1.Schedule(1, nopHandler, EventDesc{Comp: CompMachine, Kind: 1})
	st, err := e1.Save()
	if err != nil {
		t.Fatal(err)
	}
	var e2 Engine
	e2.Schedule(2, nopHandler, EventDesc{Comp: CompMachine, Kind: 1})
	var order []uint64
	if err := e2.Load(st, resolver(&order)); err == nil {
		t.Error("Load succeeded on an engine with pending events")
	}
	var e3 Engine
	e3.At(1, func() {})
	e3.Step()
	if err := e3.Load(st, resolver(&order)); err == nil {
		t.Error("Load succeeded on an engine that has executed events")
	}
}

// TestEngineLoadRejectsMalformedState pins Load's validation: events
// out of seq order, beyond the saved counter, or in the past.
func TestEngineLoadRejectsMalformedState(t *testing.T) {
	base := EngineState{Now: 100, Seq: 10, Events: []EventState{
		{At: 110, Seq: 4, Desc: EventDesc{Comp: CompMachine, Kind: 1}},
		{At: 120, Seq: 7, Desc: EventDesc{Comp: CompMachine, Kind: 1}},
	}}
	var order []uint64

	check := func(name string, mutate func(*EngineState)) {
		st := base
		st.Events = append([]EventState(nil), base.Events...)
		mutate(&st)
		var e Engine
		if err := e.Load(st, resolver(&order)); err == nil {
			t.Errorf("%s: Load succeeded", name)
		}
	}
	check("duplicate seq", func(st *EngineState) { st.Events[1].Seq = 4 })
	check("decreasing seq", func(st *EngineState) { st.Events[1].Seq = 2 })
	check("seq beyond counter", func(st *EngineState) { st.Events[1].Seq = 11 })
	check("event in the past", func(st *EngineState) { st.Events[0].At = 99 })

	// The base state itself must load.
	var e Engine
	if err := e.Load(base, resolver(&order)); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}
