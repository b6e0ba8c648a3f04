package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput: one
// event scheduling its successor, the simulator's inner-loop cost
// floor.
func BenchmarkEventThroughput(b *testing.B) {
	var e Engine
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	b.ResetTimer()
	e.Run(nil)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineStep is a steady-state mix of near-horizon delays
// feeding Step, with allocations reported. The budget is 0 allocs/op —
// enforced hard by TestZeroAllocSteadyState (CI bench-smoke); the
// tracked per-event time is bench's sim.event_ns probe, which steps
// a like mix.
func BenchmarkEngineStep(b *testing.B) {
	var e Engine
	delays := [8]Cycle{1, 2, 3, 5, 8, 13, 21, 34}
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			e.After(delays[n&7], tick)
			n++
		}
	}
	// Keep a few events in flight so Step exercises bucket scans, not
	// just the trivial one-event queue.
	for i := 0; i < 4; i++ {
		e.At(Cycle(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for e.Step() {
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// TestZeroAllocSteadyState pins the tentpole guarantee: once the node
// pool is warm, a schedule+execute round trip (After or ScheduleAfter
// followed by the Step that runs it) performs zero heap allocations —
// for near-horizon delays, same-cycle events, and far-future delays
// that transit the overflow heap alike, and for processor events
// sorting into their slots behind a cycle's deliveries.
func TestZeroAllocSteadyState(t *testing.T) {
	var e Engine
	fn := func() {}
	var sum uint64
	h := Handler(func(d *EventDesc) { sum += d.A })
	// Warm the pool and the overflow heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(Cycle(i%5)*2000, fn)
	}
	for e.Step() {
	}
	for _, delay := range []Cycle{0, 1, 100, horizon - 1, horizon, 5000} {
		d := delay
		avg := testing.AllocsPerRun(200, func() {
			e.After(d, fn)
			for e.Step() {
			}
		})
		if avg != 0 {
			t.Errorf("delay %d: After+Step allocates %v times per op, want 0", d, avg)
		}
		avg = testing.AllocsPerRun(200, func() {
			e.ScheduleAfter(d, h, EventDesc{Comp: CompCache, Kind: 2, Unit: 3, A: uint64(d)})
			for e.Step() {
			}
		})
		if avg != 0 {
			t.Errorf("delay %d: ScheduleAfter+Step allocates %v times per op, want 0", d, avg)
		}
		// A later cycle, because this one's processor phase may have begun.
		d = max(d, 1)
		avg = testing.AllocsPerRun(200, func() {
			for _, unit := range []int32{5, 2, 7} {
				e.ScheduleAfter(d, h, EventDesc{Comp: CompCPU, Kind: 1, Unit: unit})
			}
			e.ScheduleAfter(d, h, EventDesc{Comp: CompCache, Kind: 2, Unit: 3})
			for e.Step() {
			}
		})
		if avg != 0 {
			t.Errorf("delay %d: three processor events and a delivery allocate %v times per op, want 0", d, avg)
		}
	}
}

// BenchmarkEventFanout measures a bursty schedule: many events at the
// same cycle (the barrier-release pattern).
func BenchmarkEventFanout(b *testing.B) {
	var e Engine
	n := 0
	for i := 0; i < b.N; i++ {
		e.At(uint64(i/64), func() { n++ })
	}
	b.ResetTimer()
	e.Run(nil)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}
