package memory

import (
	"testing"

	"memsim/internal/sim"
)

// harness wires a module to a recording send function with optional
// back-pressure.
type harness struct {
	eng  sim.Engine
	mod  *Module
	out  []sent
	full bool // simulate a full response buffer
	wait []func()
	// onSend, when set, sees every message the module gets out
	// (replay_test.go answers recalls and invalidations from it).
	onSend func(dst int, m Msg)
}

type sent struct {
	dst int
	msg Msg
	at  sim.Cycle
}

func newHarness(lineSize int) *harness {
	h := &harness{}
	h.mod = NewModule(&h.eng, 0, lineSize,
		func(dst int, m Msg) bool {
			if h.full {
				return false
			}
			h.out = append(h.out, sent{dst, m, h.eng.Now()})
			if h.onSend != nil {
				h.onSend(dst, m)
			}
			return true
		},
		func(fn func()) { h.wait = append(h.wait, fn) },
	)
	return h
}

func (h *harness) release() {
	h.full = false
	w := h.wait
	h.wait = nil
	for _, fn := range w {
		fn()
	}
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	if !h.eng.RunLimit(nil, 100_000) {
		t.Fatal("module livelocked")
	}
}

func (h *harness) lastKind(t *testing.T) MsgKind {
	t.Helper()
	if len(h.out) == 0 {
		t.Fatal("no messages sent")
	}
	return h.out[len(h.out)-1].msg.Kind
}

func TestFlits(t *testing.T) {
	for _, c := range []struct {
		kind MsgKind
		line int
		want int
	}{
		{ReadReq, 64, 1},
		{WriteReq, 8, 1},
		{InvAck, 16, 1},
		{Invalidate, 64, 1},
		{RecallInv, 64, 1},
		{RecallShare, 64, 1},
		{WriteBack, 8, 2},
		{WriteBack, 64, 9},
		{FlushInv, 16, 3},
		{FlushShare, 8, 2},
		{DataShared, 64, 9},
		{DataExclusive, 16, 3},
	} {
		if got := (Msg{Kind: c.kind}).Flits(c.line); got != c.want {
			t.Errorf("%s flits(line=%d) = %d, want %d", c.kind, c.line, got, c.want)
		}
	}
}

func TestModuleFor(t *testing.T) {
	// Consecutive lines rotate across modules.
	for i := uint64(0); i < 32; i++ {
		line := i * 16
		want := int(i % 16)
		if got := ModuleFor(line, 16, 16); got != want {
			t.Errorf("ModuleFor(%d) = %d, want %d", line, got, want)
		}
	}
	// Addresses within a line map to the same module as the line base.
	if ModuleFor(64, 64, 4) != ModuleFor(64, 64, 4) {
		t.Error("inconsistent mapping")
	}
}

func TestReadUncachedGrantsShared(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(3, Msg{ReadReq, 0x100})
	h.run(t)
	if len(h.out) != 1 {
		t.Fatalf("sent %d messages, want 1", len(h.out))
	}
	if h.out[0].msg.Kind != DataShared || h.out[0].dst != 3 {
		t.Fatalf("got %+v, want DataShared to 3", h.out[0])
	}
	if at := h.out[0].at; at != sim.Cycle(LookupCycles+InitiateCycles) {
		t.Errorf("grant sent at %d, want %d", at, LookupCycles+InitiateCycles)
	}
	if h.mod.Stats().Reads != 1 {
		t.Error("read not counted")
	}
}

func TestWriteUncachedGrantsExclusive(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(2, Msg{WriteReq, 0x100})
	h.run(t)
	if h.lastKind(t) != DataExclusive {
		t.Fatalf("got %s, want DataExclusive", h.lastKind(t))
	}
}

func TestWriteSharedInvalidatesSharers(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.mod.Receive(2, Msg{ReadReq, 0x100})
	h.mod.Receive(3, Msg{ReadReq, 0x100})
	h.run(t)
	h.out = nil
	// CPU 1 writes: CPUs 2 and 3 must be invalidated first.
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	invTargets := map[int]bool{}
	for _, s := range h.out {
		if s.msg.Kind == Invalidate {
			invTargets[s.dst] = true
		}
	}
	if !invTargets[2] || !invTargets[3] || invTargets[1] {
		t.Fatalf("invalidates to %v, want {2,3}", invTargets)
	}
	// No grant until both acks arrive.
	for _, s := range h.out {
		if s.msg.Kind == DataExclusive {
			t.Fatal("grant before acks")
		}
	}
	h.mod.Receive(2, Msg{InvAck, 0x100})
	h.run(t)
	for _, s := range h.out {
		if s.msg.Kind == DataExclusive {
			t.Fatal("grant after only one ack")
		}
	}
	h.mod.Receive(3, Msg{InvAck, 0x100})
	h.run(t)
	if h.lastKind(t) != DataExclusive || h.out[len(h.out)-1].dst != 1 {
		t.Fatalf("final message %+v, want DataExclusive to 1", h.out[len(h.out)-1])
	}
	if h.mod.Stats().Invalidates != 2 {
		t.Errorf("Invalidates = %d, want 2", h.mod.Stats().Invalidates)
	}
}

func TestWriteSharedSoleSharerSkipsInvalidation(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.run(t)
	h.out = nil
	// The lone sharer upgrades: no invalidations needed.
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	if len(h.out) != 1 || h.out[0].msg.Kind != DataExclusive {
		t.Fatalf("got %+v, want single DataExclusive", h.out)
	}
}

func TestReadDirtyRecallsOwner(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(2, Msg{ReadReq, 0x100})
	h.run(t)
	if len(h.out) != 1 || h.out[0].msg.Kind != RecallShare || h.out[0].dst != 1 {
		t.Fatalf("got %+v, want RecallShare to 1", h.out)
	}
	h.mod.Receive(1, Msg{FlushShare, 0x100})
	h.run(t)
	if h.lastKind(t) != DataShared || h.out[len(h.out)-1].dst != 2 {
		t.Fatalf("final %+v, want DataShared to 2", h.out[len(h.out)-1])
	}
	if h.mod.Stats().Recalls != 1 {
		t.Error("recall not counted")
	}
}

func TestWriteDirtyRecallsAndInvalidatesOwner(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(2, Msg{WriteReq, 0x100})
	h.run(t)
	if len(h.out) != 1 || h.out[0].msg.Kind != RecallInv || h.out[0].dst != 1 {
		t.Fatalf("got %+v, want RecallInv to 1", h.out)
	}
	h.mod.Receive(1, Msg{FlushInv, 0x100})
	h.run(t)
	if h.lastKind(t) != DataExclusive || h.out[len(h.out)-1].dst != 2 {
		t.Fatalf("final %+v, want DataExclusive to 2", h.out[len(h.out)-1])
	}
}

func TestWriteBackReturnsLineToUncached(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(1, Msg{WriteBack, 0x100})
	h.run(t)
	// A subsequent read must be served directly (no recall).
	h.mod.Receive(2, Msg{ReadReq, 0x100})
	h.run(t)
	if len(h.out) != 1 || h.out[0].msg.Kind != DataShared {
		t.Fatalf("after write-back, read got %+v, want DataShared only", h.out)
	}
	if h.mod.Stats().WriteBacks != 1 {
		t.Error("write-back not counted")
	}
}

func TestRecallRaceWithWriteBack(t *testing.T) {
	// Owner's write-back crosses a recall: the directory receives the
	// write-back (data) and then the owner's InvAck (for the recall it
	// received after evicting). The transaction must still complete.
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(2, Msg{ReadReq, 0x100}) // triggers RecallShare to 1
	h.run(t)
	if h.lastKind(t) != RecallShare {
		t.Fatalf("expected recall, got %+v", h.out)
	}
	h.mod.Receive(1, Msg{WriteBack, 0x100}) // was already in flight
	h.run(t)
	h.mod.Receive(1, Msg{InvAck, 0x100}) // recall found no line
	h.run(t)
	if h.lastKind(t) != DataShared || h.out[len(h.out)-1].dst != 2 {
		t.Fatalf("final %+v, want DataShared to 2", h.out[len(h.out)-1])
	}
}

func TestSilentCleanEvictionThenInvAck(t *testing.T) {
	// A sharer that silently dropped its line acks an invalidate; the
	// transaction completes normally.
	h := newHarness(16)
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.mod.Receive(2, Msg{ReadReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.mod.Receive(2, Msg{InvAck, 0x100})
	h.run(t)
	if h.lastKind(t) != DataExclusive {
		t.Fatalf("final %+v, want DataExclusive", h.out)
	}
}

func TestPendingRequestsReplayAfterTransaction(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(2, Msg{ReadReq, 0x100}) // recall begins
	h.mod.Receive(3, Msg{ReadReq, 0x100}) // parks behind busy entry
	h.run(t)
	h.mod.Receive(1, Msg{FlushShare, 0x100})
	h.run(t)
	var grants []int
	for _, s := range h.out {
		if s.msg.Kind == DataShared {
			grants = append(grants, s.dst)
		}
	}
	if len(grants) != 2 || grants[0] != 2 || grants[1] != 3 {
		t.Fatalf("grants to %v, want [2 3]", grants)
	}
}

func TestIndependentLinesProcessWhileBusyEntryWaits(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	h.out = nil
	h.mod.Receive(2, Msg{ReadReq, 0x100}) // recall, parks the entry
	h.mod.Receive(3, Msg{ReadReq, 0x200}) // different line: must be served
	h.run(t)
	servedOther := false
	for _, s := range h.out {
		if s.msg.Kind == DataShared && s.msg.Line == 0x200 {
			servedOther = true
		}
	}
	if !servedOther {
		t.Fatal("independent line stuck behind busy entry")
	}
}

func TestBackPressureRetries(t *testing.T) {
	h := newHarness(16)
	h.full = true
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.run(t)
	if len(h.out) != 0 {
		t.Fatal("message sent despite full buffer")
	}
	if len(h.wait) == 0 {
		t.Fatal("module did not register a retry")
	}
	h.release()
	h.run(t)
	if len(h.out) != 1 || h.out[0].msg.Kind != DataShared {
		t.Fatalf("after release got %+v, want DataShared", h.out)
	}
}

func TestModuleSerializesRequests(t *testing.T) {
	// Two reads of different lines: the second grant is at least a
	// full line-access time after the first.
	h := newHarness(64)
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.mod.Receive(2, Msg{ReadReq, 0x240})
	h.run(t)
	if len(h.out) != 2 {
		t.Fatalf("sent %d, want 2", len(h.out))
	}
	gap := h.out[1].at - h.out[0].at
	if gap < sim.Cycle(64/8) {
		t.Errorf("grants %d cycles apart, want >= words (8)", gap)
	}
	if h.mod.Stats().BusyCycles == 0 {
		t.Error("no busy cycles recorded")
	}
}

func TestWriteBackFromNonOwnerPanics(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{WriteReq, 0x100})
	h.run(t)
	defer func() {
		if recover() == nil {
			t.Error("write-back from non-owner did not panic")
		}
	}()
	h.mod.Receive(2, Msg{WriteBack, 0x100})
	h.run(t)
}

func TestQueuedCyclesAccumulate(t *testing.T) {
	h := newHarness(64)
	// Three back-to-back requests: the later ones wait for the module.
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.mod.Receive(2, Msg{ReadReq, 0x240})
	h.mod.Receive(3, Msg{ReadReq, 0x380})
	h.run(t)
	if h.mod.Stats().QueuedCycles == 0 {
		t.Error("no queueing recorded for back-to-back requests")
	}
	if h.mod.Stats().BusyCycles < 3*(LookupCycles+InitiateCycles) {
		t.Errorf("busy cycles %d too low", h.mod.Stats().BusyCycles)
	}
}

func TestSnapshotDirStates(t *testing.T) {
	h := newHarness(16)
	h.mod.Receive(1, Msg{ReadReq, 0x100})
	h.mod.Receive(2, Msg{WriteReq, 0x200})
	h.run(t)
	snap := h.mod.SnapshotDir()
	states := map[uint64]string{}
	for _, e := range snap {
		states[e.Line] = e.State
	}
	if states[0x100] != "shared" {
		t.Errorf("line 0x100 state %q, want shared", states[0x100])
	}
	if states[0x200] != "dirty" {
		t.Errorf("line 0x200 state %q, want dirty", states[0x200])
	}
	if !h.mod.Idle() {
		t.Error("module not idle after quiesce")
	}
}
