package trace

import (
	"strings"
	"testing"

	"memsim/internal/memory"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: ReqSend})
	if r.Total() != 0 || r.Events() != nil {
		t.Error("nil recorder misbehaved")
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := New(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Cycle: uint64(i), Kind: ReqSend})
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d, want 3", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != uint64(i+2) {
			t.Errorf("event %d cycle %d, want %d (oldest-first)", i, e.Cycle, i+2)
		}
	}
}

func TestPartiallyFilledOrder(t *testing.T) {
	r := New(10)
	r.Record(Event{Cycle: 1, Kind: ReqSend})
	r.Record(Event{Cycle: 2, Kind: ReqRecv})
	ev := r.Events()
	if len(ev) != 2 || ev[0].Cycle != 1 || ev[1].Cycle != 2 {
		t.Errorf("events %v", ev)
	}
}

func TestEnableOnlyFilters(t *testing.T) {
	r := New(10)
	r.EnableOnly(CPUHalt)
	r.Record(Event{Kind: ReqSend})
	r.Record(Event{Kind: CPUHalt, Src: 3})
	ev := r.Events()
	if len(ev) != 1 || ev[0].Kind != CPUHalt {
		t.Errorf("filter failed: %v", ev)
	}
}

func TestFilterAddr(t *testing.T) {
	r := New(10)
	r.FilterAddr(0x100, 0x40)
	r.Record(Event{Kind: ReqSend, Addr: 0x80})  // below
	r.Record(Event{Kind: ReqSend, Addr: 0x120}) // inside
	r.Record(Event{Kind: ReqSend, Addr: 0x140}) // at end (excluded)
	r.Record(Event{Kind: CPUHalt, Src: 1})      // always kept
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("retained %d, want 2: %v", len(ev), ev)
	}
	if ev[0].Addr != 0x120 || ev[1].Kind != CPUHalt {
		t.Errorf("wrong events kept: %v", ev)
	}
}

func TestDumpFormat(t *testing.T) {
	r := New(4)
	r.Record(Event{Cycle: 7, Kind: ReqSend, Src: 3, Dst: 5, What: memory.ReadReq, Addr: 0x400})
	r.Record(Event{Cycle: 9, Kind: CPUHalt, Src: 2})
	d := r.Dump()
	if !strings.Contains(d, "ReadReq") || !strings.Contains(d, "0x400") {
		t.Errorf("dump missing message info:\n%s", d)
	}
	if !strings.Contains(d, "cpu2") || !strings.Contains(d, "halt") {
		t.Errorf("dump missing halt info:\n%s", d)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}
