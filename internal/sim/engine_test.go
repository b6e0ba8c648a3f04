package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now = %d, want 0", e.Now())
	}
	if e.Pending() {
		t.Fatal("zero engine should have no pending events")
	}
	if e.Step() {
		t.Fatal("Step on empty engine should return false")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var got []Cycle
	for _, c := range []Cycle{5, 1, 3, 2, 4} {
		c := c
		e.At(c, func() { got = append(got, c) })
	}
	e.Run(nil)
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestNowAdvancesToEventTime(t *testing.T) {
	var e Engine
	e.At(42, func() {})
	e.Step()
	if e.Now() != 42 {
		t.Fatalf("Now = %d, want 42", e.Now())
	}
}

func TestAfterIsRelative(t *testing.T) {
	var e Engine
	var at Cycle
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(nil)
	if at != 15 {
		t.Fatalf("After fired at %d, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(nil)
}

func TestEventsMayScheduleAtNow(t *testing.T) {
	var e Engine
	ran := false
	e.At(10, func() {
		e.At(10, func() { ran = true })
	})
	e.Run(nil)
	if !ran {
		t.Fatal("event scheduled at current cycle did not run")
	}
}

func TestRunStopsOnDone(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i), func() { count++ })
	}
	e.Run(func() bool { return count >= 3 })
	if count != 3 {
		t.Fatalf("ran %d events, want 3", count)
	}
	if !e.Pending() {
		t.Fatal("events should remain after early stop")
	}
}

func TestRunLimitAborts(t *testing.T) {
	var e Engine
	// A self-perpetuating event stream: livelock.
	var loop func()
	loop = func() { e.After(1, loop) }
	e.At(0, loop)
	if e.RunLimit(nil, 100) {
		t.Fatal("RunLimit should report failure on livelock")
	}
	if e.Steps() < 100 {
		t.Fatalf("Steps = %d, want >= 100", e.Steps())
	}
}

func TestNextTime(t *testing.T) {
	var e Engine
	e.At(9, func() {})
	e.At(3, func() {})
	if e.NextTime() != 3 {
		t.Fatalf("NextTime = %d, want 3", e.NextTime())
	}
}

// Property: for any random schedule, execution order is a stable sort of
// the requested cycles.
func TestQuickOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		type rec struct {
			at  Cycle
			seq int
		}
		var got []rec
		for i := 0; i < int(n); i++ {
			c := Cycle(rng.Intn(16))
			i := i
			e.At(c, func() { got = append(got, rec{c, i}) })
		}
		e.Run(nil)
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return len(got) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
