package memory

import (
	"fmt"
	"slices"

	"memsim/internal/sim"
)

// Event kinds for module-owned engine events (sim.EventDesc.Kind).
const (
	// modEvUnbusy ends the current occupancy; the deferred action and
	// its operands live in the module's occupancy.
	modEvUnbusy uint8 = iota + 1
	// modEvHead fires a line grant's head event. A = line, B = grant
	// kind | hasEntry<<8 | nextState<<16, C = destination cache.
	modEvHead
)

func (m *Module) evdesc(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompModule, Kind: kind, Unit: int32(m.id)}
}

// headDesc serializes a pending head event.
func (m *Module) headDesc(h *headEvt) sim.EventDesc {
	d := m.evdesc(modEvHead)
	d.A = h.msg.Line
	d.B = uint64(h.msg.Kind) | uint64(h.next)<<16
	if h.e != nil {
		d.B |= 1 << 8
	}
	d.C = uint64(h.dst)
	return d
}

// restoreHead rebuilds a pooled head event from descriptor operands.
func (m *Module) restoreHead(line uint64, kind MsgKind, hasEntry bool, next dirState, dst int) (*headEvt, error) {
	var e *entry
	if hasEntry {
		e = m.dir[line]
		if e == nil {
			return nil, fmt.Errorf("memory: head event for line %#x with no directory entry", line)
		}
	}
	return m.allocHead(dst, Msg{Kind: kind, Line: line}, e, next), nil
}

// RestoreEvent rebuilds the callback for a saved module event.
func (m *Module) RestoreEvent(d sim.EventDesc) (func(), error) {
	switch d.Kind {
	case modEvUnbusy:
		return m.unbusyFn, nil
	case modEvHead:
		h, err := m.restoreHead(d.A, MsgKind(d.B&0xff), d.B>>8&1 != 0, dirState(d.B>>16&0xff), int(d.C))
		if err != nil {
			return nil, err
		}
		return h.fn, nil
	}
	return nil, fmt.Errorf("memory: unknown event kind %d", d.Kind)
}

// DrainFunc returns the module's output-drain retry callback. The
// machine re-registers it when restoring a saved network space wait.
func (m *Module) DrainFunc() func() { return m.drainFn }

// dirLine is one directory entry in a snapshot, with the map key it
// lives under.
type dirLine struct {
	Line  uint64
	Entry entry
}

// ModuleState is the complete serializable state of a Module: its
// occupancy and counters verbatim, the two queues front first, and the
// directory sorted by line so snapshot bytes are deterministic.
type ModuleState struct {
	Dir   []dirLine
	Inq   []queued
	Occ   occupancy
	Outq  []outMsg
	Stats Stats
}

// Save captures the module's directory, queues and occupancy state.
func (m *Module) Save() ModuleState {
	st := ModuleState{Inq: m.inq.items(), Occ: m.occ, Outq: m.outq.items(), Stats: m.stats}
	lines := make([]uint64, 0, len(m.dir))
	for line := range m.dir {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	st.Dir = make([]dirLine, len(lines))
	for i, line := range lines {
		st.Dir[i] = dirLine{line, *m.dir[line]}
		// The live entry reuses its waiter list's backing array.
		st.Dir[i].Entry.Pending = slices.Clone(st.Dir[i].Entry.Pending)
	}
	return st
}

// Load restores a freshly constructed module from a snapshot.
func (m *Module) Load(st ModuleState) error {
	if len(m.dir) != 0 || m.occ.Busy || m.inq.len() != 0 || m.outq.len() != 0 {
		return fmt.Errorf("memory: Load on a used module %d", m.id)
	}
	for _, d := range st.Dir {
		e := d.Entry
		e.Pending = slices.Clone(e.Pending)
		m.dir[d.Line] = &e
	}
	for _, q := range st.Inq {
		m.inq.pushBack(q)
	}
	for _, o := range st.Outq {
		m.outq.pushBack(o)
	}
	m.occ = st.Occ
	m.stats = st.Stats
	return nil
}
