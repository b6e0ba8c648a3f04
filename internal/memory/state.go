package memory

import (
	"fmt"
	"sort"

	"memsim/internal/sim"
)

// Event kinds for module-owned engine events (sim.EventDesc.Kind).
const (
	// modEvUnbusy ends the current occupancy; the deferred action and
	// its operands live in the module's busy* fields.
	modEvUnbusy uint8 = iota + 1
	// modEvHead fires a line grant's head event. A = line, B = grant
	// kind | hasEntry<<8 | nextState<<16, C = destination cache.
	modEvHead
	// Kinds 3 (whenIdle retry) and 4 (occupy retry) are retired: the
	// busy-retry paths they served were unreachable — completions and
	// transaction finishes always dispatch from an idle input queue —
	// and were removed. The values stay reserved so old snapshots that
	// could never contain them fail loudly rather than misresolve.
	_
	_
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

// EntryState is one directory entry in a snapshot.
type EntryState struct {
	Line      uint64
	State     uint8
	Sharers   SharerSet
	Owner     int
	Tx        uint8
	AcksLeft  int
	Requester int
	Grant     MsgKind
	NextState uint8
	Pending   []RequestState
}

// RequestState is one parked or queued protocol request.
type RequestState struct {
	Src int
	Msg Msg
}

// QueuedState is one input-queue entry.
type QueuedState struct {
	Src int
	Msg Msg
	At  sim.Cycle
}

// OutState is one output-queue entry awaiting network space.
type OutState struct {
	Dst int
	Msg Msg
}

// ModuleState is the complete serializable state of a Module. Directory
// entries are sorted by line so snapshot bytes are deterministic.
type ModuleState struct {
	Dir         []EntryState
	Inq         []QueuedState
	Busy        bool
	BusySince   sim.Cycle
	BusyAct     uint8
	BusyDst     int
	BusyMsg     Msg
	BusyTargets SharerSet
	Outq        []OutState
	Stats       Stats
}

// Save captures the module's directory, queues and occupancy state.
func (m *Module) Save() ModuleState {
	st := ModuleState{
		Busy: m.busy, BusySince: m.busySince, BusyAct: uint8(m.busyAct),
		BusyDst: m.busyDst, BusyMsg: m.busyMsg, BusyTargets: m.busyTargets,
		Stats: m.stats,
	}
	lines := make([]uint64, 0, len(m.dir))
	for line := range m.dir {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		e := m.dir[line]
		es := EntryState{
			Line: line, State: uint8(e.state), Sharers: e.sharers, Owner: e.owner,
			Tx: uint8(e.tx), AcksLeft: e.acksLeft, Requester: e.requester,
			Grant: e.grant, NextState: uint8(e.nextState),
		}
		for _, r := range e.pending {
			es.Pending = append(es.Pending, RequestState{Src: r.src, Msg: r.msg})
		}
		st.Dir = append(st.Dir, es)
	}
	for i := 0; i < m.inq.len(); i++ {
		q := m.inq.at(i)
		st.Inq = append(st.Inq, QueuedState{Src: q.req.src, Msg: q.req.msg, At: q.at})
	}
	for i := 0; i < m.outq.len(); i++ {
		o := m.outq.at(i)
		st.Outq = append(st.Outq, OutState{Dst: o.dst, Msg: o.msg})
	}
	return st
}

// Load restores a freshly constructed module from a snapshot.
func (m *Module) Load(st ModuleState) error {
	if len(m.dir) != 0 || m.busy || m.inq.len() != 0 || m.outq.len() != 0 {
		return fmt.Errorf("memory: Load on a used module %d", m.id)
	}
	for _, es := range st.Dir {
		e := &entry{
			state: dirState(es.State), sharers: es.Sharers, owner: es.Owner,
			tx: txKind(es.Tx), acksLeft: es.AcksLeft, requester: es.Requester,
			grant: es.Grant, nextState: dirState(es.NextState),
		}
		for _, r := range es.Pending {
			e.pending = append(e.pending, request{src: r.Src, msg: r.Msg})
		}
		m.dir[es.Line] = e
	}
	for _, q := range st.Inq {
		m.inq.pushBack(queued{request{q.Src, q.Msg}, q.At})
	}
	for _, o := range st.Outq {
		m.outq.pushBack(outMsg{o.Dst, o.Msg})
	}
	m.busy = st.Busy
	m.busySince = st.BusySince
	m.busyAct = busyAction(st.BusyAct)
	m.busyDst = st.BusyDst
	m.busyMsg = st.BusyMsg
	m.busyTargets = st.BusyTargets
	m.stats = st.Stats
	return nil
}
