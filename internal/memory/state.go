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
	// modEvHead fires when the first word of a line grant is ready to
	// leave (lookup + initiation into a streaming occupancy). A = line,
	// B = grant kind | completes<<8 | nextState<<16, C = destination
	// cache. A grant that completes a busy transaction also installs
	// the entry's next stable state and replays its parked requests.
	modEvHead
)

func (m *Module) event(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompModule, Kind: kind, Unit: int32(m.id)}
}

func (m *Module) headEvent(dst int, msg Msg, completes bool, next dirState) sim.EventDesc {
	d := m.event(modEvHead)
	d.A = msg.Line
	d.B = uint64(msg.Kind) | uint64(next)<<16
	if completes {
		d.B |= 1 << 8
	}
	d.C = uint64(dst)
	return d
}

// fire runs one of the module's due events.
func (m *Module) fire(d *sim.EventDesc) {
	switch d.Kind {
	case modEvUnbusy:
		m.unbusy()
	case modEvHead:
		var e *entry
		if d.B>>8&1 != 0 {
			e = m.dir[d.A]
			e.State = dirState(d.B >> 16 & 0xff)
		}
		m.enqueueOut(int(d.C), Msg{MsgKind(d.B & 0xff), d.A})
		if e != nil {
			m.replayPending(e)
		}
	default:
		panic(fmt.Sprintf("memory %d: event of unknown kind %d", m.id, d.Kind))
	}
}

// CheckEvent says whether fire can run a saved event, in a machine of
// the given number of caches, and returns the handler that will. The
// module's directory and occupancy must have been restored already.
func (m *Module) CheckEvent(d sim.EventDesc, caches int) (sim.Handler, error) {
	switch d.Kind {
	case modEvUnbusy:
		if !m.occ.Busy {
			return nil, fmt.Errorf("memory: end-of-occupancy event for an idle module")
		}
	case modEvHead:
		kind, next := MsgKind(d.B&0xff), dirState(d.B>>16&0xff)
		if kind != DataShared && kind != DataExclusive {
			return nil, fmt.Errorf("memory: head event granting %v", kind)
		}
		if d.C >= uint64(caches) {
			return nil, fmt.Errorf("memory: head event for cache %d of %d", d.C, caches)
		}
		if d.B>>8&1 != 0 {
			if e := m.dir[d.A]; e == nil || e.State != busySt {
				return nil, fmt.Errorf("memory: head event completing line %#x, which has no transaction in progress", d.A)
			}
			if next != sharedSt && next != dirtySt {
				return nil, fmt.Errorf("memory: head event leaving line %#x in directory state %d", d.A, next)
			}
		}
	default:
		return nil, fmt.Errorf("memory: unknown event kind %d", d.Kind)
	}
	return m.handler, nil
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
