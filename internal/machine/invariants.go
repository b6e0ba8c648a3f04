package machine

import (
	"fmt"

	"memsim/internal/cache"
	"memsim/internal/robust"
)

// CheckNow runs the coherence invariant checker against the machine's
// current state and returns the first violation as a *robust.SimError
// (nil when clean). It is sound at any cycle: transactions in flight
// leave their directory entry Busy, so Busy entries are exempt from
// the cache/directory cross-checks. The invariants:
//
//   - at most one cache holds a line Exclusive, and an Exclusive line
//     is resident nowhere else;
//   - a line marked dirty in a cache is held Exclusive there;
//   - every resident line lies within the authoritative flat memory
//     image (a dirty line outside it could never bind its stores);
//   - for non-Busy directory entries, presence bits match cache tag
//     states: an Exclusive holder must be the recorded Dirty owner,
//     a Shared holder must appear in the sharer set, and an Uncached
//     entry must have no holders (stale sharer bits are legal —
//     clean evictions are silent — but missing ones are not);
//   - a Dirty directory entry names an owner that exists;
//   - every processor's interlock summary agrees with its register file.
//
// Run schedules this every Config.CheckEvery cycles when non-zero.
func (m *Machine) CheckNow() *robust.SimError {
	now := m.Eng.Now()
	fail := func(line uint64, format string, args ...interface{}) *robust.SimError {
		return &robust.SimError{
			Kind: robust.Invariant, Component: "machine", Unit: -1, Cycle: now,
			Line: line, HasLine: true, Detail: fmt.Sprintf(format, args...),
		}
	}
	for i, c := range m.cpus {
		if err := c.CheckInterlocks(); err != nil {
			return &robust.SimError{Kind: robust.Invariant, Component: "cpu", Unit: i, Cycle: now, Detail: err.Error()}
		}
	}

	type holder struct {
		cpu   int
		state cache.State
		dirty bool
	}
	holders := map[uint64][]holder{}
	imageBytes := uint64(len(m.shared)) * 8
	for i, c := range m.caches {
		for _, ln := range c.Snapshot() {
			if ln.Dirty && ln.State != cache.Exclusive {
				return fail(ln.Addr, "dirty line held %s (not exclusively) in cache %d", ln.State, i)
			}
			if ln.Addr+uint64(m.cfg.LineSize) > imageBytes {
				return fail(ln.Addr, "resident line in cache %d beyond the %d-word shared image", i, len(m.shared))
			}
			holders[ln.Addr] = append(holders[ln.Addr], holder{i, ln.State, ln.Dirty})
		}
	}
	for line, hs := range holders {
		excl := -1
		for _, h := range hs {
			if h.state == cache.Exclusive {
				if excl >= 0 {
					return fail(line, "line exclusive in caches %d and %d", excl, h.cpu)
				}
				excl = h.cpu
			}
		}
		if excl >= 0 && len(hs) > 1 {
			return fail(line, "line exclusive in cache %d but resident in %d caches", excl, len(hs))
		}
	}

	for _, mod := range m.modules {
		for _, e := range mod.SnapshotDir() {
			if e.State == "busy" {
				continue // mid-transaction: cache states are transiently out of sync
			}
			if e.State == "dirty" && (e.Owner < 0 || e.Owner >= m.cfg.Procs) {
				return fail(e.Line, "directory dirty with owner %d out of range", e.Owner)
			}
			for _, h := range holders[e.Line] {
				switch {
				case h.state == cache.Exclusive && (e.State != "dirty" || e.Owner != h.cpu):
					return fail(e.Line, "line exclusive in cache %d but directory says %s (owner %d)",
						h.cpu, e.State, e.Owner)
				case h.state == cache.Shared && e.State == "shared" && !e.Sharers.Has(h.cpu):
					return fail(e.Line, "line held by cache %d missing from sharer set %v", h.cpu, e.Sharers)
				case h.state == cache.Shared && e.State == "uncached":
					return fail(e.Line, "line held by cache %d but directory says uncached", h.cpu)
				case h.state == cache.Shared && e.State == "dirty":
					return fail(e.Line, "line held shared by cache %d but directory says dirty (owner %d)",
						h.cpu, e.Owner)
				}
			}
		}
	}
	return nil
}

// CheckCoherence verifies the protocol's safety invariants after a run
// has quiesced (all processors halted, no messages in flight): those
// CheckNow holds at any cycle and, because nothing is in flight any
// more, that every module is idle, no directory entry is still
// mid-transaction or has requests parked behind it, and a Dirty entry's
// owner really holds the line exclusively. It returns the first
// violation found.
func (m *Machine) CheckCoherence() error {
	if err := m.CheckNow(); err != nil {
		return err
	}
	for mi, mod := range m.modules {
		if !mod.Idle() {
			return fmt.Errorf("module %d not idle after quiesce", mi)
		}
		for _, e := range mod.SnapshotDir() {
			switch {
			case e.State == "busy":
				return fmt.Errorf("line %#x directory still busy", e.Line)
			case e.Pending != 0:
				return fmt.Errorf("line %#x has %d parked requests after quiesce", e.Line, e.Pending)
			case e.State == "dirty" && !m.caches[e.Owner].Probe(cache.Write, e.Line):
				return fmt.Errorf("line %#x dirty at owner %d but not held exclusively", e.Line, e.Owner)
			}
		}
	}
	return nil
}
