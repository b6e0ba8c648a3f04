package memory

import (
	"bytes"
	"encoding/gob"
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live module is either carried
// by ModuleState or deliberately not, and then says what Reset does
// with it; a field added without deciding fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Resettable(t, Module{}, ModuleState{}, map[string]string{
		"eng":       "kept: engine pointer",
		"id":        "kept: construction constant",
		"entries":   "reset: zeroed; counts the table's entries, which Load makes again",
		"words":     "reset: from the configuration",
		"slotShift": "reset: from the line size and module count; Load places entries by it",
		"spare":     "kept: zeroed entries of earlier runs, no state of this one; entryFor takes them as new",
		"send":      "kept: network attachment, wired at construction",
		"whenSpace": "kept: network attachment, wired at construction",
		"drainFn":   "kept: prebuilt callback",
		"handler":   "kept: wiring, the one engine handler (fire)",
		"mc":        "reset: detached. The machine saves the collector",
	})
}

// TestResetRecyclesDirectory: Reset keeps a module's directory entries
// for its next run. Abandoned mid-transaction — a line busy with a
// recall, two requests parked behind it — and reset, the module must
// save and show its directory as a new one does, and a second run of
// the same requests must save as the first run did, on the first run's
// entries and waiter arrays.
func TestResetRecyclesDirectory(t *testing.T) {
	encode := func(st ModuleState) []byte {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(st); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// script runs the requests and returns what the module saves with
	// the requests parked, then after the transaction.
	script := func(h *harness) (parked, done []byte) {
		h.mod.Receive(1, Msg{WriteReq, 0x100})
		h.mod.Receive(3, Msg{ReadReq, 0x200})
		h.run(t)
		h.mod.Receive(2, Msg{ReadReq, 0x100}) // recall begins
		h.mod.Receive(3, Msg{ReadReq, 0x100}) // parks behind the busy entry
		h.mod.Receive(4, Msg{WriteReq, 0x100})
		h.run(t)
		if e := h.mod.lookup(0x100); e == nil || e.State != busySt || len(e.Pending) != 2 {
			t.Fatalf("line 0x100 is not busy with two parked requests: %+v", e)
		}
		parked = encode(h.mod.Save())
		h.mod.Receive(1, Msg{FlushShare, 0x100})
		h.run(t)
		return parked, encode(h.mod.Save())
	}
	fresh := newHarness(16)
	parked, done := script(fresh)

	h := newHarness(16)
	script(h)
	// Abandoned busy again, with its waiters parked, then reset.
	h.mod.Receive(2, Msg{WriteReq, 0x100})
	h.mod.Receive(3, Msg{ReadReq, 0x100})
	h.run(t)
	if e := h.mod.lookup(0x100); e == nil || e.State != busySt || len(e.Pending) == 0 {
		t.Fatalf("line 0x100 is not busy with parked requests: %+v", e)
	}
	entries := map[*entry]bool{h.mod.lookup(0x100): true, h.mod.lookup(0x200): true}
	h.eng.Reset()
	h.mod.Reset(16, 1)
	if got, want := encode(h.mod.Save()), encode(newHarness(16).mod.Save()); !bytes.Equal(got, want) {
		t.Errorf("a reset module saves %x, a new one %x", got, want)
	}
	if d := h.mod.SnapshotDir(); d != nil {
		t.Errorf("a reset module shows directory %+v, a new one none", d)
	}
	if len(h.mod.spare) != 2 {
		t.Fatalf("%d spare entries after Reset, want the run's 2", len(h.mod.spare))
	}
	h.out = nil
	p2, d2 := script(h)
	if !bytes.Equal(p2, parked) || !bytes.Equal(d2, done) {
		t.Error("a second run on the reset module saves other than the first did")
	}
	if len(h.mod.spare) != 0 || !entries[h.mod.lookup(0x100)] || !entries[h.mod.lookup(0x200)] {
		t.Error("the second run did not take the first run's entries")
	}
}
