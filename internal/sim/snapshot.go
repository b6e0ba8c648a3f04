package sim

import (
	"fmt"
	"sort"
)

// Component classes for event descriptors. The machine layer assigns
// one class per component type; Unit distinguishes instances. CompNone
// is the zero value, which no component uses: a descriptor that was
// never filled in resolves to no owner.
const (
	CompNone uint8 = iota
	CompMachine
	CompCPU
	CompCache
	CompModule
	CompNet
)

// EventDesc is a scheduled event, as plain data: what the engine hands
// the owner's handler when the event is due and all a snapshot saves of
// it. Comp/Unit identify the owning component; Kind and A/B/C are the
// owner's to interpret.
type EventDesc struct {
	Comp uint8
	Kind uint8
	Unit int32
	A    uint64
	B    uint64
	C    uint64
}

// EventState is one pending event in a snapshot: its firing cycle, its
// insertion sequence number (the tie-breaker that fixes execution order
// within a slot of the cycle), and its descriptor, which says the slot.
type EventState struct {
	At   Cycle
	Seq  uint64
	Desc EventDesc
}

// EngineState is the complete serializable state of an Engine. Events
// are sorted by Seq so Load can insert them in a single pass that
// preserves every bucket's delivery (= seq) order; what is pending of
// the current cycle runs in (slot, seq) order from any point.
type EngineState struct {
	Now    Cycle
	Seq    uint64
	Steps  uint64
	Events []EventState
}

// Save captures the engine's counters and every pending event. It
// fails if any pending event is a plain At/After closure: such an
// event holds state only its closure knows, which a snapshot cannot
// carry.
func (e *Engine) Save() (EngineState, error) {
	st := EngineState{Now: e.now, Seq: e.seq, Steps: e.steps}
	if e.count > 0 {
		st.Events = make([]EventState, 0, e.count)
	}
	// A node is pending exactly when it holds a handler or a callback:
	// Step drops the one it runs before it frees the node.
	for i := range e.nodes {
		n := &e.nodes[i]
		if n.fn != nil {
			return EngineState{}, fmt.Errorf("sim: pending event at cycle %d (seq %d) has no descriptor; scheduled via At/After instead of Schedule", n.at, n.seq)
		}
		if n.h != nil {
			st.Events = append(st.Events, EventState{At: n.at, Seq: n.seq, Desc: n.desc})
		}
	}
	if len(st.Events) != e.count {
		return EngineState{}, fmt.Errorf("sim: enumerated %d pending events, engine counts %d", len(st.Events), e.count)
	}
	sort.Slice(st.Events, func(i, j int) bool { return st.Events[i].Seq < st.Events[j].Seq })
	return st, nil
}

// Load rebuilds the engine from a saved state: counters are restored
// and every saved event is re-inserted with its original cycle and
// sequence number. resolve names the handler of the component that
// owns a descriptor, after checking that the component can run it: a
// saved event is outside input. The engine must be freshly constructed
// or Reset (nothing scheduled).
//
// Because events arrive sorted by Seq, deliveries append in seq order
// and processor events sort into their slots, so the restored engine
// executes events in an order bit-identical to the uninterrupted run.
func (e *Engine) Load(st EngineState, resolve func(EventDesc) (Handler, error)) error {
	if e.count != 0 || e.steps != 0 {
		return fmt.Errorf("sim: Load on a used engine (%d pending, %d executed)", e.count, e.steps)
	}
	e.now = st.Now
	e.steps = st.Steps
	prev := uint64(0)
	for _, ev := range st.Events {
		if ev.Seq <= prev {
			return fmt.Errorf("sim: event sequence numbers not strictly increasing (%d after %d)", ev.Seq, prev)
		}
		prev = ev.Seq
		if ev.Seq > st.Seq {
			return fmt.Errorf("sim: event seq %d beyond saved counter %d", ev.Seq, st.Seq)
		}
		if ev.At < st.Now {
			return fmt.Errorf("sim: saved event at cycle %d before engine time %d", ev.At, st.Now)
		}
		h, err := resolve(ev.Desc)
		if err != nil {
			return fmt.Errorf("sim: resolving event at cycle %d (seq %d): %w", ev.At, ev.Seq, err)
		}
		if h == nil {
			return fmt.Errorf("sim: resolver returned nil handler for event at cycle %d (seq %d)", ev.At, ev.Seq)
		}
		e.seq = ev.Seq - 1 // add deals the event its saved number again
		e.Schedule(ev.At, h, ev.Desc)
	}
	e.seq = st.Seq
	return nil
}
