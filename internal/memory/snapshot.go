package memory

import "fmt"

// DirSnapshot describes one directory entry for diagnostics and
// invariant checking.
type DirSnapshot struct {
	Line    uint64
	State   string // "uncached", "shared", "dirty", "busy"
	Sharers SharerSet
	Owner   int
	Pending int // parked requests
}

func (s dirState) label() string {
	switch s {
	case uncached:
		return "uncached"
	case sharedSt:
		return "shared"
	case dirtySt:
		return "dirty"
	case busySt:
		return "busy"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

func (m *Module) snapshotEntry(line uint64, e *entry) DirSnapshot {
	return DirSnapshot{Line: line, State: e.State.label(), Sharers: e.Sharers,
		Owner: e.Owner, Pending: len(e.Pending)}
}

// SnapshotDir returns every directory entry. Intended for post-run
// invariant checks; not part of the timing model.
func (m *Module) SnapshotDir() []DirSnapshot {
	var out []DirSnapshot
	for line, e := range m.dir {
		out = append(out, m.snapshotEntry(line, e))
	}
	return out
}

// DirEntry returns the directory snapshot for one line, if the module
// has an entry for it. Diagnostics only.
func (m *Module) DirEntry(line uint64) (DirSnapshot, bool) {
	e := m.dir[line]
	if e == nil {
		return DirSnapshot{}, false
	}
	return m.snapshotEntry(line, e), true
}

// QueueDepth reports the module's input-queue occupancy and whether it
// is currently busy (diagnostics).
func (m *Module) QueueDepth() (queued int, busy bool) { return m.inq.len(), m.occ.Busy }

// Idle reports whether the module has no queued work and no occupancy
// (used to assert full quiescence after a run).
func (m *Module) Idle() bool { return !m.occ.Busy && m.inq.len() == 0 && m.outq.len() == 0 }
