package sim

import (
	"math/rand"
	"os"
	"testing"
	"time"
)

// Differential test: the Engine's execution order is compared against
// a naive reference scheduler (a flat slice, linear-scan minimum by
// (at, slot, seq)) on randomized self-expanding schedules. The
// reference is obviously correct with respect to the determinism
// contract, so any divergence indicts the engine's data structure —
// the bucket's two-handle list, the overflow heap's migration, or
// Save/Load, which the engine under test goes through every few dozen
// steps.

// scheduler is the surface both implementations share.
type scheduler interface {
	Now() Cycle
	Schedule(Cycle, Handler, EventDesc)
	Step() bool
}

// event is the reference's record: one scheduled descriptor tagged with
// its cycle, its slot in the cycle and its insertion sequence.
type event struct {
	at   Cycle
	slot int32
	seq  uint64
	h    Handler
	d    EventDesc
}

// refSched is the reference: an unordered slice, stepped by scanning
// for the minimum (at, slot, seq). O(n) per step, transparently correct.
type refSched struct {
	now Cycle
	seq uint64
	evs []event
}

func (r *refSched) Now() Cycle { return r.now }

func (r *refSched) Schedule(at Cycle, h Handler, d EventDesc) {
	if at < r.now {
		panic("refSched: scheduling event in the past")
	}
	r.seq++
	slot := int32(0)
	if d.Comp == CompCPU {
		slot = d.Unit + 1
	}
	r.evs = append(r.evs, event{at: at, slot: slot, seq: r.seq, h: h, d: d})
}

func (r *refSched) Step() bool {
	if len(r.evs) == 0 {
		return false
	}
	less := func(a, b *event) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		return a.seq < b.seq
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		if less(&r.evs[i], &r.evs[best]) {
			best = i
		}
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = ev.at
	ev.h(&ev.d)
	return true
}

// reloading is the engine under test, saved and loaded into a new
// Engine every few dozen steps: whatever is pending — ring, overflow
// heap, a cycle stopped between its deliveries and its processors —
// must come back in the same order.
type reloading struct {
	*Engine
	t     *testing.T
	h     Handler
	every uint64
}

func (r *reloading) Step() bool {
	if r.every != 0 && r.Steps()%r.every == r.every-1 {
		st, err := r.Save()
		if err != nil {
			r.t.Fatal(err)
		}
		r.Engine = new(Engine)
		if err := r.Load(st, func(EventDesc) (Handler, error) { return r.h, nil }); err != nil {
			r.t.Fatal(err)
		}
	}
	return r.Engine.Step()
}

// traceEntry records one executed event: which script node ran, when.
type traceEntry struct {
	id uint64
	at Cycle
}

// runScript drives a scheduler through a pseudo-random self-expanding
// schedule and returns the execution trace. Every event is a
// descriptor run by the one handler bind is given; its id (A) is
// assigned by a deterministic counter at scheduling time, and about
// half are processor events on one of eight units, created in whatever
// order the script reaches them. Handlers spawn children with delays
// drawn from a mix that straddles the horizon boundary (0, tiny, ~1K,
// and multi-K cycles); a child in the spawning cycle goes to a slot
// not before its parent's, as the engine requires. Randomness is
// consumed in execution order, so identical traces imply identical
// orders and vice versa.
func runScript(s scheduler, bind func(Handler), seed int64, size int) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var nextID uint64
	total := 0
	delays := []Cycle{0, 1, 2, 3, 7, 63, 1022, 1023, 1024, 1025, 2048, 5000}
	const units = 8

	var h Handler
	// spawn schedules a delivery or a processor event; minUnit >= 0
	// asks for a processor of at least that unit.
	spawn := func(at Cycle, minUnit int32) {
		d := EventDesc{Comp: CompMachine, A: nextID}
		if minUnit >= 0 || rng.Intn(2) == 0 {
			minUnit = max(minUnit, 0)
			d.Comp, d.Unit = CompCPU, minUnit+int32(rng.Intn(int(units-minUnit)))
		}
		nextID++
		total++
		s.Schedule(at, h, d)
	}
	h = func(d *EventDesc) {
		trace = append(trace, traceEntry{id: d.A, at: s.Now()})
		if total >= size {
			return
		}
		for n := rng.Intn(3); n > 0; n-- {
			delay, minUnit := delays[rng.Intn(len(delays))], int32(-1)
			if delay == 0 && d.Comp == CompCPU {
				minUnit = d.Unit
			}
			spawn(s.Now()+delay, minUnit)
		}
	}
	bind(h)
	// Seed population: a burst of roots across a wide time range,
	// including exact collisions.
	for i := 0; i < 32; i++ {
		spawn(Cycle(rng.Intn(4000)), -1)
	}
	for s.Step() {
	}
	return trace
}

func diffOneSeed(t *testing.T, seed int64, size int) {
	t.Helper()
	want := runScript(&refSched{}, func(Handler) {}, seed, size)
	for _, every := range []uint64{0, 37} {
		e := &reloading{Engine: new(Engine), t: t, every: every}
		got := runScript(e, func(h Handler) { e.h = h }, seed, size)
		if len(got) != len(want) {
			t.Fatalf("seed %d, reload every %d: trace lengths differ: engine %d, reference %d", seed, every, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, reload every %d: traces diverge at step %d: engine %+v, reference %+v",
					seed, every, i, got[i], want[i])
			}
		}
	}
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		diffOneSeed(t, seed, 3000)
	}
}

// TestEngineMatchesReferenceExtended is the long-budget sweep for
// nightly CI: thousands of seeds at a larger schedule size. Gated on
// MEMSIM_EXTENDED so the default test run stays fast.
func TestEngineMatchesReferenceExtended(t *testing.T) {
	if os.Getenv("MEMSIM_EXTENDED") == "" {
		t.Skip("set MEMSIM_EXTENDED=1 for the extended differential sweep")
	}
	deadline := time.Now().Add(5 * time.Minute)
	if d, ok := t.Deadline(); ok && d.Before(deadline) {
		deadline = d.Add(-30 * time.Second)
	}
	seed := int64(1)
	for time.Now().Before(deadline) {
		diffOneSeed(t, seed, 20000)
		seed++
	}
	t.Logf("extended differential sweep: %d seeds checked", seed-1)
}
