// Package sim provides the discrete-event core that all timed components
// of the simulator share: a monotonically advancing cycle counter and a
// priority queue of callbacks scheduled at future cycles.
//
// The engine is deliberately minimal. A simulator component schedules an
// event as data: Schedule takes a descriptor and the owning component's
// one handler, which the engine calls with the descriptor when the
// event is due. Tests and throwaway drivers schedule closures with
// At/After. The machine drains the queue in (cycle, slot, insertion)
// order: within a cycle every delivery runs first, in the order it was
// scheduled, then the processors (CompCPU descriptors) in ascending
// Unit, whenever their events were created (DESIGN.md §9). That makes
// every simulation deterministic and therefore reproducible in tests.
//
// Internally the queue is a bucketed calendar queue (DESIGN.md §9): a
// power-of-two ring of per-cycle buckets covers the near horizon
// [Now, Now+horizon), a two-level bitmap finds the next occupied
// bucket in O(1), and a small typed min-heap holds the rare far-future
// events (watchdog and checker ticks) until the window slides over them.
// Event records are typed nodes recycled through a free list, so the
// steady-state schedule/execute cycle performs zero heap allocations —
// no interface{} boxing, no per-event container churn. The execution
// order is pinned by the golden-result corpus (testdata/golden/) and
// the differential test against a reference scheduler in
// engine_diff_test.go.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in processor cycles from
// the start of the run.
type Cycle = uint64

const (
	// horizon is the ring size: the number of future cycles (including
	// the current one) addressable without the overflow heap. It must
	// be a power of two and a multiple of 64. 1024 cycles comfortably
	// covers every latency in the simulated machine (the longest
	// single delay on the hot path is a full line transfer plus memory
	// occupancy, well under 100 cycles); only watchdog ticks and
	// invariant-checker periods land in the overflow heap.
	horizon = 1024
	ringMax = horizon - 1
	bmWords = horizon / 64
)

// Handler runs a component's due events. A component has one: it
// switches on the descriptor's Kind and finds what the event is about
// (an MSHR, a port, a directory entry) from A/B/C. The descriptor is
// the engine's copy, the handler's to read and change until it returns;
// it comes by pointer because by value costs 5 ns an event (DESIGN.md
// §9).
type Handler func(*EventDesc)

// node is one scheduled event, linked into a bucket list or parked on
// the free list: a descriptor and its owner's handler (which rides
// here because finding it again from (Comp, Unit) costs as much), or a
// plain At/After callback fn. A free node has neither. Nodes are
// addressed by 1-based int32 handles into Engine.nodes; handle 0 means
// "none", which keeps the zero-valued Engine ready to use.
type node struct {
	h    Handler
	fn   func()
	at   Cycle
	seq  uint64 // tie-breaker: insertion order within a slot
	next int32  // bucket list / free-list link
	slot int32  // place in the cycle: 0 a delivery, u+1 processor u
	desc EventDesc
}

// slotOf is a descriptor's place in its cycle.
func slotOf(d *EventDesc) int32 {
	if d.Comp == CompCPU {
		return d.Unit + 1
	}
	return 0
}

// bucket is one ring slot, the events of a single cycle as one list
// from head: the deliveries in seq order, tail the last of them, and
// chained behind tail the processor events in (slot, seq) order. Direct
// delivery inserts arrive in seq order and overflow migration always
// precedes them (see migrate), so a delivery goes in at tail with zero
// comparisons; a processor event walks its cycle's few processor nodes.
type bucket struct{ head, tail int32 }

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now   Cycle
	seq   uint64
	steps uint64
	count int       // pending events across ring and overflow
	cur   EventDesc // the event being run, as its handler sees it

	nodes []node // handle-addressed node pool; slot 0 reserved
	free  int32  // free-list head (0: empty)
	slot  int32  // slot of the last event run: how far cycle now has got

	buckets [horizon]bucket
	occ     [bmWords]uint64 // bit b of word w set: bucket w*64+b non-empty
	summary uint64          // bit w set: occ[w] != 0

	// overflow is a typed min-heap of node handles ordered by
	// (at, seq), holding events with at-now >= horizon. Between Steps
	// every overflow event satisfies that bound, so the ring always
	// owns the earliest pending cycle whenever it is non-empty.
	overflow []int32
}

// Reset returns the engine to its zero state, dropping whatever is
// pending, and keeps the node pool and the overflow heap at the size
// the busiest run grew them to. Handles are dealt from slot 1 again, so
// a reset engine schedules exactly as a new one does.
func (e *Engine) Reset() {
	clear(e.nodes) // dropped handlers and callbacks must not outlive the run
	*e = Engine{nodes: e.nodes[:min(len(e.nodes), 1)], overflow: e.overflow[:0]}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Steps returns the number of events executed so far (useful as a
// progress/abort metric in tests).
func (e *Engine) Steps() uint64 { return e.steps }

// release returns a node to the free list. Its caller has dropped the
// node's handler or callback, so the garbage collector can reclaim
// whatever a closure captured.
func (e *Engine) release(h int32) {
	e.nodes[h].next = e.free
	e.free = h
}

// ProcessorPhase reports whether a processor event has run in the
// current cycle: its deliveries are over.
func (e *Engine) ProcessorPhase() bool { return e.slot != 0 }

// add queues a node for (at, slot) under the next sequence number — in
// that cycle's bucket when it is inside the ring window, on the
// overflow heap otherwise — and returns it for the caller to say what
// runs. The node comes off the free list, and the pool grows only when
// that is empty (steady state allocates nothing). The pool starts small
// and append doubles it, so its size follows the most events the run
// ever had pending: a two-processor machine that lives a few hundred
// events pays for a dozen nodes, not for a big machine's thousands.
// Scheduling in the past — a cycle before Now, or a slot of this cycle
// ahead of the one that last ran — panics: it would silently reorder
// causality.
func (e *Engine) add(at Cycle, slot int32) *node {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	if at == e.now && slot < e.slot {
		panic("sim: scheduling event into a part of the current cycle that has already run")
	}
	h := e.free
	if h != 0 {
		e.free = e.nodes[h].next
	} else {
		if e.nodes == nil {
			e.nodes = make([]node, 1, 16) // slot 0 reserved as nil
		}
		e.nodes = append(e.nodes, node{})
		h = int32(len(e.nodes) - 1)
	}
	e.seq++
	e.count++
	n := &e.nodes[h]
	n.at, n.seq, n.slot = at, e.seq, slot
	if at-e.now < horizon {
		e.ringPush(h, at)
	} else {
		e.heapPush(h)
	}
	return n
}

// ringPush links a node into the bucket for cycle at (which must be
// within [now, now+horizon)) and marks it occupied in the bitmaps.
func (e *Engine) ringPush(h int32, at Cycle) {
	idx := uint(at) & ringMax
	b := &e.buckets[idx]
	if b.head == 0 {
		w := idx >> 6
		e.occ[w] |= 1 << (idx & 63)
		e.summary |= 1 << w
	}
	link := &b.head // the link behind the last delivery
	if b.tail != 0 {
		link = &e.nodes[b.tail].next
	}
	n := &e.nodes[h]
	if n.slot == 0 {
		b.tail = h
	} else {
		for *link != 0 && e.nodes[*link].slot <= n.slot {
			link = &e.nodes[*link].next
		}
	}
	n.next, *link = *link, h
}

// heapLess orders overflow handles by (at, seq); ringPush sorts a
// cycle's migrants into their slots.
func (e *Engine) heapLess(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	return na.at < nb.at || (na.at == nb.at && na.seq < nb.seq)
}

// heapPush inserts a handle into the overflow min-heap.
func (e *Engine) heapPush(h int32) {
	e.overflow = append(e.overflow, h)
	i := len(e.overflow) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(e.overflow[i], e.overflow[p]) {
			break
		}
		e.overflow[i], e.overflow[p] = e.overflow[p], e.overflow[i]
		i = p
	}
}

// heapPop removes and returns the overflow minimum.
func (e *Engine) heapPop() int32 {
	h := e.overflow[0]
	last := len(e.overflow) - 1
	e.overflow[0] = e.overflow[last]
	e.overflow = e.overflow[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		c := l
		if r := l + 1; r < last && e.heapLess(e.overflow[r], e.overflow[l]) {
			c = r
		}
		if !e.heapLess(e.overflow[c], e.overflow[i]) {
			break
		}
		e.overflow[i], e.overflow[c] = e.overflow[c], e.overflow[i]
		i = c
	}
	return h
}

// migrate moves overflow events that have entered the ring window into
// their buckets. Called immediately after now advances, before the
// popped event's callback runs: heap pops deliver the migrants in
// (at, seq) order, and any direct insert for a newly covered cycle can
// only happen in a later callback (inserting at cycle C from outside
// the overflow requires now > C-horizon, by which point this migration
// has already run), so a bucket's deliveries remain in seq order.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 {
		h := e.overflow[0]
		at := e.nodes[h].at
		if at-e.now >= horizon {
			return
		}
		e.heapPop()
		e.ringPush(h, at)
	}
}

// Schedule queues the event d for cycle at: the engine calls h with it
// when it is due. Everything the handler needs must be in d or reachable
// from it, because d is all a snapshot saves of the event; Load hands
// it back to the same handler.
func (e *Engine) Schedule(at Cycle, h Handler, d EventDesc) {
	n := e.add(at, slotOf(&d))
	n.h, n.desc = h, d
}

// ScheduleAfter queues the event d for delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, h Handler, d EventDesc) {
	e.Schedule(e.now+delay, h, d)
}

// At schedules the closure fn to run at the given cycle. Such an event
// is only its closure, which a snapshot cannot carry: Save refuses an
// engine that holds one. Tests and throwaway drivers whose engines are
// never saved use it; simulator components use Schedule.
func (e *Engine) At(at Cycle, fn func()) {
	e.add(at, 0).fn = fn
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// Pending reports whether any events remain in the queue.
func (e *Engine) Pending() bool { return e.count > 0 }

// Len returns how many events remain in the queue.
func (e *Engine) Len() int { return e.count }

// ringEarliest returns the cycle of the earliest occupied bucket,
// scanning the two-level bitmap circularly from now's slot. The caller
// guarantees the ring is non-empty (summary != 0).
func (e *Engine) ringEarliest() Cycle {
	start := uint(e.now) & ringMax
	sw, sb := start>>6, start&63
	// Bits at or after start within its word.
	if w := e.occ[sw] >> sb; w != 0 {
		return e.now + Cycle(bits.TrailingZeros64(w))
	}
	// Whole words after start's, up to the end of the ring.
	if s := e.summary >> (sw + 1) << (sw + 1); s != 0 {
		w := uint(bits.TrailingZeros64(s))
		idx := w<<6 + uint(bits.TrailingZeros64(e.occ[w]))
		return e.now + Cycle(idx-start)
	}
	// Wrapped around: whole words before start's.
	if s := e.summary & (1<<sw - 1); s != 0 {
		w := uint(bits.TrailingZeros64(s))
		idx := w<<6 + uint(bits.TrailingZeros64(e.occ[w]))
		return e.now + Cycle(horizon-start+idx)
	}
	// Wrapped into the low bits of start's own word.
	w := e.occ[sw] & (1<<sb - 1)
	idx := sw<<6 + uint(bits.TrailingZeros64(w))
	return e.now + Cycle(horizon-start+idx)
}

// earliest returns the cycle of the earliest pending event. The caller
// guarantees count > 0. Between Steps every overflow event lies at or
// beyond now+horizon, so a non-empty ring always wins.
func (e *Engine) earliest() Cycle {
	if e.summary != 0 {
		return e.ringEarliest()
	}
	return e.nodes[e.overflow[0]].at
}

// NextTime returns the cycle of the earliest pending event. It panics if
// the queue is empty; check Pending first.
func (e *Engine) NextTime() Cycle {
	if e.count == 0 {
		panic("sim: NextTime on empty queue")
	}
	return e.earliest()
}

// Step executes the single earliest pending event, advancing Now to its
// cycle. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.count == 0 {
		return false
	}
	if at := e.earliest(); at != e.now {
		e.now = at
		e.migrate()
	}
	idx := uint(e.now) & ringMax
	b := &e.buckets[idx]
	h := b.head
	n := &e.nodes[h]
	b.head = n.next
	if h == b.tail {
		b.tail = 0
	}
	if b.head == 0 {
		w := idx >> 6
		e.occ[w] &^= 1 << (idx & 63)
		if e.occ[w] == 0 {
			e.summary &^= 1 << w
		}
	}
	e.count--
	e.steps++
	e.slot = n.slot
	if fn := n.fn; fn != nil {
		n.fn = nil
		e.release(h)
		fn()
	} else {
		handler := n.h
		n.h = nil
		e.cur = n.desc
		e.release(h)
		handler(&e.cur)
	}
	return true
}

// Run drains the queue until empty or until the predicate done returns
// true (checked between events). A nil done runs to quiescence. Run
// returns the cycle at which it stopped.
func (e *Engine) Run(done func() bool) Cycle {
	for {
		if done != nil && done() {
			return e.now
		}
		if !e.Step() {
			return e.now
		}
	}
}

// RunLimit drains the queue like Run but aborts after maxSteps events,
// returning false if the limit was hit (a watchdog for livelocked
// configurations under test).
func (e *Engine) RunLimit(done func() bool, maxSteps uint64) bool {
	start := e.steps
	for {
		if done != nil && done() {
			return true
		}
		if e.steps-start >= maxSteps {
			return false
		}
		if !e.Step() {
			return true
		}
	}
}
