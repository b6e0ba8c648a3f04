package sim

import (
	"fmt"
	"testing"
)

// These table-driven edge-case tests pin the exact semantics the
// calendar-queue engine must preserve from the heap engine: re-entrant
// scheduling from inside handlers, the RunLimit boundary, and queue
// introspection after a drain.

// every runs fn each interval cycles for as long as it returns true: a
// watchdog's or checker's tick, one handler that schedules its own
// descriptor again.
func every(e *Engine, interval Cycle, fn func() bool) {
	var tick Handler
	tick = func(d *EventDesc) {
		if fn() {
			e.ScheduleAfter(interval, tick, *d)
		}
	}
	e.ScheduleAfter(interval, tick, EventDesc{Comp: CompMachine})
}

func TestEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"EveryReentrancy", testEveryReentrancy},
		{"AtNowDuringStep", testAtNowDuringStep},
		{"RunLimitExactBoundary", testRunLimitExactBoundary},
		{"DrainedQueueState", testDrainedQueueState},
		{"CrossHorizonDelay", testCrossHorizonDelay},
		{"FarFutureBackfill", testFarFutureBackfill},
		{"DeliveriesThenProcessorsByID", testCycleOrder},
		{"LateSameCycleSchedulePanics", testLateSameCycleSchedule},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

// testEveryReentrancy checks that a periodic handler may itself
// schedule events — including another periodic stream — and that the
// combined tick streams interleave in deterministic (cycle, insertion)
// order.
func testEveryReentrancy(t *testing.T) {
	var e Engine
	var got []string
	outer := 0
	every(&e, 10, func() bool {
		outer++
		got = append(got, fmt.Sprintf("outer@%d", e.Now()))
		if outer == 1 {
			// Re-entrant: start a second periodic stream from inside the
			// first one's callback.
			every(&e, 10, func() bool {
				got = append(got, fmt.Sprintf("inner@%d", e.Now()))
				return e.Now() < 40
			})
			// And a one-shot at the exact cycle of future ticks: the
			// inner stream's first tick was inserted just before it, and
			// the outer stream re-arms only after this callback returns,
			// so cycle 20 must run inner, shot, outer in that order.
			e.At(20, func() { got = append(got, fmt.Sprintf("shot@%d", e.Now())) })
		}
		return outer < 4
	})
	e.Run(nil)
	want := []string{
		"outer@10",
		"inner@20", "shot@20", "outer@20",
		"inner@30", "outer@30",
		"inner@40", "outer@40",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("interleaving:\n got %v\nwant %v", got, want)
	}
}

// testAtNowDuringStep checks that a handler scheduling At(Now()) gets
// the new event executed later in the same cycle, after anything
// already queued for that cycle (insertion order).
func testAtNowDuringStep(t *testing.T) {
	var e Engine
	var got []string
	e.At(5, func() {
		got = append(got, "first")
		e.At(e.Now(), func() { got = append(got, "same-cycle-child") })
	})
	e.At(5, func() { got = append(got, "second") })
	e.Run(nil)
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
	want := []string{"first", "second", "same-cycle-child"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order:\n got %v\nwant %v", got, want)
	}
}

// testRunLimitExactBoundary checks the boundary semantics when the
// schedule holds exactly maxSteps events: the limit check precedes the
// Step that would discover the queue is empty, so RunLimit reports
// false even though all events actually executed.
func testRunLimitExactBoundary(t *testing.T) {
	const n = 7
	var e Engine
	ran := 0
	for i := 0; i < n; i++ {
		e.At(Cycle(i), func() { ran++ })
	}
	if ok := e.RunLimit(nil, n); ok {
		t.Fatalf("RunLimit(nil, %d) with exactly %d events = true, want false", n, n)
	}
	if ran != n {
		t.Fatalf("ran %d events, want %d", ran, n)
	}
	// One extra step of headroom flips the answer.
	var e2 Engine
	for i := 0; i < n; i++ {
		e2.At(Cycle(i), func() {})
	}
	if ok := e2.RunLimit(nil, n+1); !ok {
		t.Fatalf("RunLimit(nil, %d) with %d events = false, want true", n+1, n)
	}
}

// testDrainedQueueState checks Pending/NextTime after a drain: Pending
// is false, NextTime panics, and the engine remains usable.
func testDrainedQueueState(t *testing.T) {
	var e Engine
	e.At(3, func() {})
	e.After(9, func() {})
	e.Run(nil)
	if e.Pending() {
		t.Fatal("Pending() = true after drain")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextTime() on drained queue did not panic")
			}
		}()
		e.NextTime()
	}()
	// The drained engine accepts new work at the stopped cycle.
	ran := false
	e.After(1, func() { ran = true })
	if !e.Pending() {
		t.Fatal("Pending() = false after rescheduling on drained engine")
	}
	if nt := e.NextTime(); nt != 10 {
		t.Fatalf("NextTime() = %d, want 10", nt)
	}
	e.Run(nil)
	if !ran {
		t.Fatal("event scheduled after drain never ran")
	}
}

// testCrossHorizonDelay exercises delays far beyond any near-horizon
// window (watchdog-style ticks) mixed with dense near events, and a
// far event becoming near as time advances.
func testCrossHorizonDelay(t *testing.T) {
	var e Engine
	var got []string
	e.After(100_000, func() { got = append(got, fmt.Sprintf("far@%d", e.Now())) })
	e.After(1, func() {
		got = append(got, fmt.Sprintf("near@%d", e.Now()))
		// From cycle 1, 99_999 ahead lands exactly on the far event's
		// cycle; it was inserted later so it must run second.
		e.After(99_999, func() { got = append(got, fmt.Sprintf("tie@%d", e.Now())) })
	})
	every(&e, 30_000, func() bool {
		got = append(got, fmt.Sprintf("tick@%d", e.Now()))
		return e.Now() < 90_000
	})
	e.Run(nil)
	want := []string{
		"near@1", "tick@30000", "tick@60000", "tick@90000",
		"far@100000", "tie@100000",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cross-horizon order:\n got %v\nwant %v", got, want)
	}
}

// testFarFutureBackfill schedules a far-future event first, then
// backfills earlier cycles from handlers, checking that ordering never
// depends on insertion sequence across different cycles.
func testFarFutureBackfill(t *testing.T) {
	var e Engine
	var got []Cycle
	e.At(5000, func() { got = append(got, e.Now()) })
	e.At(0, func() {
		got = append(got, e.Now())
		for d := Cycle(1); d <= 4096; d *= 2 {
			e.After(d, func() { got = append(got, e.Now()) })
		}
	})
	e.Run(nil)
	want := []Cycle{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 5000}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("backfill order:\n got %v\nwant %v", got, want)
	}
}

// testCycleOrder pins the order inside a cycle: every delivery in the
// order it was scheduled, then the processors in ascending unit (and
// one unit's events in the order they were scheduled), whenever each
// was created — before the deliveries, between them, from one of them,
// from an earlier processor, or through the overflow heap.
func testCycleOrder(t *testing.T) {
	for _, at := range []Cycle{40, 3 * horizon} {
		var e Engine
		var got, names []string
		cpu := func(unit int32, name string) EventDesc {
			names = append(names, name)
			return EventDesc{Comp: CompCPU, Kind: 1, Unit: unit, A: uint64(len(names) - 1)}
		}
		rec := func(d *EventDesc) { got = append(got, names[d.A]) }
		deliver := func(name string, then func()) {
			e.At(at, func() {
				got = append(got, name)
				if then != nil {
					then()
				}
			})
		}
		e.Schedule(at, rec, cpu(6, "p6"))
		deliver("d1", nil)
		e.Schedule(at, rec, cpu(2, "p2"))
		deliver("d2", func() {
			e.Schedule(at, rec, cpu(4, "p4"))
			deliver("d4", nil)
		})
		e.Schedule(at, rec, cpu(0, "p0"))
		e.Schedule(at, func(d *EventDesc) {
			rec(d)
			e.Schedule(at, rec, cpu(5, "p5")) // a later processor, this cycle
			e.Schedule(at, rec, cpu(3, "q3")) // itself again
		}, cpu(3, "p3"))
		deliver("d3", nil)
		e.Schedule(at, rec, cpu(2, "q2"))
		e.Run(nil)
		want := "[d1 d2 d3 d4 p0 p2 q2 p3 q3 p4 p5 p6]"
		if fmt.Sprint(got) != want {
			t.Errorf("cycle %d:\n got %v\nwant %v", at, got, want)
		}
	}
}

// testLateSameCycleSchedule: once a processor has run in a cycle, a
// delivery or an earlier processor scheduled into that cycle would run
// after events it belongs before, so the engine refuses it the way it
// refuses the past. Its own and later slots stay open, and so does
// every later cycle.
func testLateSameCycleSchedule(t *testing.T) {
	nop := func(*EventDesc) {}
	for _, c := range []struct {
		name   string
		d      EventDesc
		delay  Cycle
		panics bool
	}{
		{"delivery, same cycle", EventDesc{Comp: CompCache, Unit: 9}, 0, true},
		{"earlier processor, same cycle", EventDesc{Comp: CompCPU, Unit: 2}, 0, true},
		{"the processor itself, same cycle", EventDesc{Comp: CompCPU, Unit: 3}, 0, false},
		{"later processor, same cycle", EventDesc{Comp: CompCPU, Unit: 4}, 0, false},
		{"delivery, next cycle", EventDesc{Comp: CompCache, Unit: 9}, 1, false},
		{"earlier processor, next cycle", EventDesc{Comp: CompCPU, Unit: 2}, 1, false},
	} {
		var e Engine
		var panicked, phase bool
		e.Schedule(7, func(*EventDesc) {
			defer func() { panicked = recover() != nil }()
			phase = e.ProcessorPhase()
			e.ScheduleAfter(c.delay, nop, c.d)
		}, EventDesc{Comp: CompCPU, Unit: 3})
		e.At(7, func() {
			if e.ProcessorPhase() {
				t.Errorf("%s: ProcessorPhase inside a delivery", c.name)
			}
		})
		e.Run(nil)
		if !phase {
			t.Errorf("%s: ProcessorPhase false inside a processor event", c.name)
		}
		if panicked != c.panics {
			t.Errorf("%s: panicked = %v, want %v", c.name, panicked, c.panics)
		}
	}
}
