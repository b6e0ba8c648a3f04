package memory

import (
	"math/bits"

	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Timing constants. InitiateCycles is the paper's seven-cycle RAM
// initiation; LookupCycles covers the directory lookup and is the
// calibration knob that makes an uncontended read miss deliver its
// first word 18 cycles after the cache issues it on a 16-processor
// machine (20 cycles at 32 processors) — asserted by a machine test.
const (
	InitiateCycles = 7
	LookupCycles   = 4
	// AckCycles is the directory occupancy for processing one
	// invalidation acknowledgment.
	AckCycles = 1
)

// dirState is the stable directory state of one line.
type dirState uint8

const (
	uncached dirState = iota
	sharedSt
	dirtySt
	busySt
)

// txKind describes what a busy directory entry is waiting for.
type txKind uint8

const (
	txNone       txKind = iota
	txAwaitAck          // counting invalidation acks
	txAwaitFlush        // waiting for the dirty owner's flush
)

// entry is one full-map directory entry plus transient transaction
// bookkeeping. Like request, queued, outMsg and occupancy below it is
// plain data that a snapshot carries verbatim.
type entry struct {
	State   dirState
	Sharers SharerSet // caches holding the line (Shared)
	Owner   int       // exclusive owner (Dirty)

	// Busy transaction state.
	Tx        txKind
	AcksLeft  int
	Requester int
	Grant     MsgKind  // DataShared or DataExclusive to send when done
	NextState dirState // state to install on completion
	Pending   []request
	line      uint64 // the line's address; a snapshot's dirLine carries it
}

// request is a parked protocol request.
type request struct {
	Src int
	Msg Msg
}

// Stats counts module activity.
type Stats struct {
	Reads        uint64 // ReadReq served
	Writes       uint64 // WriteReq served
	WriteBacks   uint64
	Recalls      uint64 // recall round trips initiated
	Invalidates  uint64 // invalidation messages sent
	BusyCycles   uint64 // cycles the module was occupied
	QueuedCycles uint64 // total cycles requests waited in the input queue
}

// busyAction tells unbusy what to do when the current occupancy ends:
// the post-busy work is data in the occupancy, so every occupancy ends
// on the same plain unbusy event.
type busyAction uint8

const (
	actNone    busyAction = iota
	actSendOne            // send occ.Msg to occ.Dst (recall messages)
	actSendInv            // send Invalidate(occ.Msg.Line) to every bit of occ.Targets
)

// occupancy is the module's current service slot: whether it is taken,
// since when, and the post-occupancy action unbusy consumes.
type occupancy struct {
	Busy    bool
	Since   sim.Cycle
	Act     busyAction
	Dst     int
	Msg     Msg
	Targets SharerSet
}

// Module is one global memory module with its directory slice.
//
// The machine layer provides send: it must enqueue a response-network
// message and report acceptance; on false the module registers retry
// via whenSpace. Exactly one message is in the module's send hand at a
// time.
type Module struct {
	eng       *sim.Engine
	id        int
	words     int
	send      func(dst int, m Msg) bool
	whenSpace func(fn func())

	// dir is the directory, a table holding a line's entry at slot
	// line>>slotShift (nil: none yet). slotShift drops the line offset
	// and floor(log2(modules)) bits: a module's lines are modules apart,
	// so no two share a slot, and the table is at most twice as long
	// as the exact one.
	dir       []*entry
	entries   int // non-nil slots of dir
	slotShift uint
	spare     []*entry // zeroed entries of earlier runs, for entryFor to reuse

	inq ring[queued] // requests waiting for the module, in service order
	occ occupancy

	// outq holds messages waiting for response-network buffer space.
	outq ring[outMsg]

	drainFn func()      // prebuilt m.drainOut, registered with whenSpace
	handler sim.Handler // prebuilt m.fire, the one engine handler

	stats Stats
	mc    *metrics.Collector // nil: no metrics collection
}

// queued is one input-queue entry: a request and its arrival cycle.
type queued struct {
	Src int
	Msg Msg
	At  sim.Cycle
}

// outMsg is one output-queue entry awaiting network space.
type outMsg struct {
	Dst int
	Msg Msg
}

// NewModule creates module id of a one-module machine. send injects
// into the response network (returning false when its entrance buffer
// is full); whenSpace registers a one-shot callback for when space frees.
func NewModule(eng *sim.Engine, id, lineSize int, send func(dst int, m Msg) bool, whenSpace func(fn func())) *Module {
	m := &Module{eng: eng, id: id, send: send, whenSpace: whenSpace}
	m.drainFn = m.drainOut
	m.handler = m.fire
	m.Reset(lineSize, 1)
	return m
}

// Reset returns the module to the state NewModule leaves it in, for a
// power-of-two line size and any module count: empty directory and
// queues, idle, counters zero, no collector; table and rings keep size,
// and entries wait on the spare list, zeroed but for their waiter arrays.
func (m *Module) Reset(lineSize, modules int) {
	m.words = lineSize / 8
	m.slotShift = uint(bits.TrailingZeros(uint(lineSize)) + bits.Len(uint(modules)) - 1)
	for _, e := range m.dir {
		if e != nil {
			*e = entry{Pending: e.Pending[:0]}
			m.spare = append(m.spare, e)
		}
	}
	clear(m.dir)
	m.dir, m.entries = m.dir[:0], 0
	m.inq.reset()
	m.outq.reset()
	m.occ = occupancy{}
	m.stats = Stats{}
	m.mc = nil
}

// Stats returns a copy of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// SetMetrics attaches a cycle-attribution collector (nil disables).
// The module reports input-queue waits; collection never changes
// timing.
func (m *Module) SetMetrics(mc *metrics.Collector) { m.mc = mc }

// fail raises a structured protocol error for this module. It does not
// return: the raise unwinds to Machine.Run, which reports it with a
// diagnostic dump.
func (m *Module) fail(op string, line uint64, format string, args ...interface{}) {
	robust.Raisef("memory", m.id, m.eng.Now(), op, line, format, args...)
}

// Receive accepts one protocol message from a cache (delivered by the
// request network). src is the sending cache's endpoint id. Data
// messages are considered fully received when Receive is called: the
// machine layer delays delivery until the tail flit has arrived.
func (m *Module) Receive(src int, msg Msg) {
	switch msg.Kind {
	case ReadReq, WriteReq, WriteBack, FlushInv, FlushShare, InvAck:
		m.inq.pushBack(queued{src, msg, m.eng.Now()})
		m.kick()
	default:
		m.fail(msg.Kind.String(), msg.Line, "module received response-class message from cache %d", src)
	}
}

// kick dequeues requests while the module is idle. Every request
// occupies the module except one that process parks behind a busy
// line, so the loop passes over any run of parked requests and stops
// at the first one served.
func (m *Module) kick() {
	for !m.occ.Busy && m.inq.len() > 0 {
		q := m.inq.popFront()
		wait := uint64(m.eng.Now() - q.At)
		m.stats.QueuedCycles += wait
		m.mc.ModuleWait(m.eng.Now(), wait)
		m.process(request{q.Src, q.Msg})
	}
}

// setBusy occupies the module for d cycles; when the occupancy ends,
// unbusy performs act (using the occ.Dst/Msg/Targets fields the
// caller set beforehand) and kicks the input queue.
func (m *Module) setBusy(d sim.Cycle, act busyAction) {
	if m.occ.Busy {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "memory", Unit: m.id,
			Cycle: m.eng.Now(), Detail: "module occupied while already busy"})
	}
	m.occ.Busy = true
	m.occ.Since = m.eng.Now()
	m.occ.Act = act
	m.eng.ScheduleAfter(d, m.handler, m.event(modEvUnbusy))
}

// unbusy ends the current occupancy, performs the deferred action, and
// resumes input processing.
func (m *Module) unbusy() {
	m.occ.Busy = false
	m.stats.BusyCycles += uint64(m.eng.Now() - m.occ.Since)
	act := m.occ.Act
	m.occ.Act = actNone
	switch act {
	case actSendOne:
		m.enqueueOut(m.occ.Dst, m.occ.Msg)
	case actSendInv:
		msg := m.occ.Msg
		m.occ.Targets.ForEach(func(t int) { m.enqueueOut(t, msg) })
	}
	m.kick()
}

// ModuleFor maps a line-aligned address to its home module under
// line-interleaved placement. lineSize is a power of two.
func ModuleFor(line uint64, lineSize, modules int) int {
	return int((line >> bits.TrailingZeros(uint(lineSize))) % uint64(modules))
}

// entryFor returns the directory entry, made if needed (spares first).
func (m *Module) entryFor(line uint64) *entry {
	s := line >> m.slotShift
	if n := uint64(len(m.dir)); s >= n {
		m.dir = append(m.dir, make([]*entry, s+1-n)...)
	}
	e := m.dir[s]
	if e == nil {
		if n := len(m.spare); n > 0 {
			e, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			e = new(entry)
		}
		e.line = line // and uncached, as new or as Reset left it
		m.dir[s] = e
		m.entries++
	}
	return e
}

// lookup returns the line's directory entry, nil if it has none.
func (m *Module) lookup(line uint64) *entry {
	if s := line >> m.slotShift; s < uint64(len(m.dir)) && m.dir[s] != nil && m.dir[s].line == line {
		return m.dir[s]
	}
	return nil
}

// process handles one dequeued request, leaving the module occupied
// unless the request parks.
func (m *Module) process(r request) {
	e := m.entryFor(r.Msg.Line)
	if e.State == busySt && (r.Msg.Kind == ReadReq || r.Msg.Kind == WriteReq) {
		// The line is mid-transaction; park the request. Write-backs
		// and completions must still reach the busy entry.
		e.Pending = append(e.Pending, r)
		return
	}
	switch r.Msg.Kind {
	case ReadReq:
		m.stats.Reads++
		m.processRead(r, e)
	case WriteReq:
		m.stats.Writes++
		m.processWrite(r, e)
	case WriteBack:
		m.stats.WriteBacks++
		m.processWriteBack(r, e)
	case FlushInv, FlushShare, InvAck:
		m.completion(r.Src, r.Msg)
	default:
		m.fail(r.Msg.Kind.String(), r.Msg.Line, "unprocessable request from cache %d", r.Src)
	}
}

func (m *Module) processRead(r request, e *entry) {
	line := r.Msg.Line
	switch e.State {
	case uncached, sharedSt:
		e.State = sharedSt
		e.Sharers.Add(r.Src)
		m.serveData(r.Src, Msg{DataShared, line})
	case dirtySt:
		// Recall the dirty line; the owner downgrades to Shared.
		m.stats.Recalls++
		owner := e.Owner
		e.State = busySt
		e.Tx = txAwaitFlush
		e.Requester = r.Src
		e.Grant = DataShared
		e.NextState = sharedSt
		e.Sharers = SharerSet{}
		e.Sharers.Add(owner)
		e.Sharers.Add(r.Src)
		m.occ.Dst = owner
		m.occ.Msg = Msg{RecallShare, line}
		m.setBusy(LookupCycles, actSendOne)
	default:
		m.fail(r.Msg.Kind.String(), line, "read dequeued against a busy directory entry")
	}
}

func (m *Module) processWrite(r request, e *entry) {
	line := r.Msg.Line
	switch e.State {
	case uncached:
		e.State = dirtySt
		e.Owner = r.Src
		m.serveData(r.Src, Msg{DataExclusive, line})
	case sharedSt:
		// Invalidate every sharer except the requester (which dropped
		// its own copy before requesting ownership), then grant.
		others := e.Sharers
		others.Remove(r.Src)
		if others.Empty() {
			e.State = dirtySt
			e.Owner = r.Src
			e.Sharers = SharerSet{}
			m.serveData(r.Src, Msg{DataExclusive, line})
			return
		}
		e.State = busySt
		e.Tx = txAwaitAck
		e.Requester = r.Src
		e.Grant = DataExclusive
		e.NextState = dirtySt
		n := others.Count()
		e.AcksLeft = n
		e.Sharers = SharerSet{}
		e.Owner = r.Src
		m.stats.Invalidates += uint64(n)
		m.occ.Msg = Msg{Invalidate, line}
		m.occ.Targets = others
		m.setBusy(LookupCycles, actSendInv)
	case dirtySt:
		m.stats.Recalls++
		owner := e.Owner
		e.State = busySt
		e.Tx = txAwaitFlush
		e.Requester = r.Src
		e.Grant = DataExclusive
		e.NextState = dirtySt
		e.Owner = r.Src
		e.Sharers = SharerSet{}
		m.occ.Dst = owner
		m.occ.Msg = Msg{RecallInv, line}
		m.setBusy(LookupCycles, actSendOne)
	default:
		m.fail(r.Msg.Kind.String(), line, "write dequeued against a busy directory entry")
	}
}

func (m *Module) processWriteBack(r request, e *entry) {
	// A write-back can only come from the dirty owner. It can race
	// with a recall (the directory may already be Busy awaiting the
	// flush); in that case the data has now arrived and the pending
	// InvAck from the ex-owner will complete the transaction.
	switch e.State {
	case dirtySt:
		if e.Owner != r.Src {
			m.fail(r.Msg.Kind.String(), r.Msg.Line, "write-back from cache %d but owner is %d", r.Src, e.Owner)
		}
		e.State = uncached
		e.Owner = 0
		e.Sharers = SharerSet{}
		m.setBusy(sim.Cycle(LookupCycles+InitiateCycles+m.words), actNone)
	case busySt:
		// Race: the directory recalled the line while this write-back
		// was in flight. Count the RAM write time but leave the
		// transaction waiting for the ex-owner's InvAck.
		if e.Tx != txAwaitFlush {
			m.fail(r.Msg.Kind.String(), r.Msg.Line, "write-back from cache %d during an invalidation transaction", r.Src)
		}
		m.setBusy(sim.Cycle(LookupCycles+InitiateCycles+m.words), actNone)
	default:
		m.fail(r.Msg.Kind.String(), r.Msg.Line, "write-back from cache %d in directory state %d", r.Src, e.State)
	}
}

// serveData occupies the module for a full line access and sends the
// grant: lookup + initiation, first word on the network, then one busy
// cycle per word while the line streams.
func (m *Module) serveData(dst int, msg Msg) {
	m.setBusy(sim.Cycle(LookupCycles+InitiateCycles+m.words), actNone)
	m.eng.ScheduleAfter(LookupCycles+InitiateCycles, m.handler, m.headEvent(dst, msg, false, uncached))
}

// completion handles FlushInv/FlushShare/InvAck for a busy entry.
func (m *Module) completion(src int, msg Msg) {
	e := m.lookup(msg.Line)
	if e == nil || e.State != busySt {
		m.fail(msg.Kind.String(), msg.Line, "completion from cache %d for a line with no transaction in progress", src)
	}
	switch msg.Kind {
	case FlushInv, FlushShare:
		if e.Tx != txAwaitFlush {
			m.fail(msg.Kind.String(), msg.Line, "flush from cache %d without a recall in progress", src)
		}
		m.finishTx(e, msg.Line)
	case InvAck:
		switch e.Tx {
		case txAwaitAck:
			e.AcksLeft--
			if e.AcksLeft > 0 {
				// Acks are dispatched from the idle input queue, so the
				// module is free to absorb each one directly; setBusy fails
				// loudly if that invariant ever breaks.
				m.setBusy(AckCycles, actNone)
				return
			}
			m.finishTx(e, msg.Line)
		case txAwaitFlush:
			// The owner no longer had the line (clean silent eviction,
			// or its write-back already arrived). Memory's copy is
			// current; complete from RAM.
			m.finishTx(e, msg.Line)
		default:
			m.fail(msg.Kind.String(), msg.Line, "invalidation ack from cache %d with no acks expected", src)
		}
	}
}

// finishTx completes a busy transaction: the module writes/re-reads
// RAM and grants the line to the requester. The grant's first word
// leaves after lookup+initiation while the module stays busy streaming
// the rest; parked requests replay once the line leaves Busy. Like
// every transition out of a directory transaction, it runs with the
// module idle (completions dispatch from the input queue), so the
// occupancy starts immediately — setBusy fails loudly otherwise.
func (m *Module) finishTx(e *entry, line uint64) {
	e.Tx = txNone
	m.setBusy(sim.Cycle(LookupCycles+InitiateCycles+m.words), actNone)
	m.eng.ScheduleAfter(LookupCycles+InitiateCycles, m.handler, m.headEvent(e.Requester, Msg{e.Grant, line}, true, e.NextState))
}

// replayPending re-injects requests parked behind a busy entry at the
// front of the input queue, in arrival order. The entry keeps its
// waiter list's backing array for the line's next transaction.
func (m *Module) replayPending(e *entry) {
	if len(e.Pending) == 0 {
		return
	}
	p, now := e.Pending, m.eng.Now()
	e.Pending = p[:0]
	for i := len(p) - 1; i >= 0; i-- {
		m.inq.pushFront(queued{p[i].Src, p[i].Msg, now})
	}
	m.kick()
}

// enqueueOut hands a message to the response network, retrying when
// the entrance buffer is full.
func (m *Module) enqueueOut(dst int, msg Msg) {
	m.outq.pushBack(outMsg{dst, msg})
	if m.outq.len() == 1 {
		m.drainOut()
	}
}

func (m *Module) drainOut() {
	for m.outq.len() > 0 {
		o := m.outq.at(0)
		if !m.send(o.Dst, o.Msg) {
			m.whenSpace(m.drainFn)
			return
		}
		m.outq.popFront()
	}
}
