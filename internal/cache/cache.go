// Package cache implements the per-processor shared-data cache of the
// simulated machine: two-way set-associative, write-back,
// write-allocate, lockup-free with a small set of miss
// information/status holding registers (MSHRs), per §3.1-3.2 of the
// paper.
//
// The cache is a timing and coherence-state model only: it holds tags
// and states, never data values. Functional values live in the
// machine's flat shared-memory image and are bound by the processor
// through the Bind/Retire callbacks of a Request's Binder at the
// cycles the access performs.
//
// Protocol behavior implemented here:
//
//   - A write (or test-and-set) hit requires Exclusive state. A write
//     to a line held Shared invalidates the local copy and issues an
//     ownership fetch — a write miss, exactly the accounting the paper
//     uses to explain Qsort's low write-hit ratios (§3.3).
//   - A miss allocates an MSHR and sends ReadReq/WriteReq toward the
//     line's home module. A second access to a line with a pending
//     MSHR stalls (Conflict); there is no merging.
//   - Non-binding prefetches (SC2) allocate MSHRs but have no waiting
//     processor operation; a prefetched line installs in Shared or
//     Exclusive-clean state and remains fully visible to coherence.
//   - Arriving data binds the processor's value one cycle after the
//     header flit (first word) and installs/retires when the tail
//     arrives (one cycle per 8-byte word), evicting a victim — with a
//     write-back if the victim was Exclusive.
//   - Invalidations and recalls are honored whether or not the line is
//     still present (clean evictions are silent, so the directory may
//     hold stale sharers), and lines lost to them are remembered so a
//     subsequent demand miss can be counted as an invalidation miss.
package cache

import (
	"fmt"

	"memsim/internal/memory"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// State is the local state of a cache line.
type State uint8

const (
	Invalid   State = iota
	Shared          // read-only, possibly in other caches
	Exclusive       // owned; writable; dirty once written
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Kind is the type of a processor access.
type Kind uint8

const (
	Read          Kind = iota
	ReadOwn            // load with write intent: fetch with ownership
	Write              // store: needs ownership
	RMW                // test-and-set: needs ownership, returns a value
	PrefetchRead       // non-binding prefetch with read intent
	PrefetchWrite      // non-binding prefetch with write intent
)

// Outcome is the immediate result of an Access call.
type Outcome uint8

const (
	// Hit: the access performed now. For prefetches it also means
	// "nothing to do" (line present or already being fetched).
	Hit Outcome = iota
	// Miss: an MSHR was allocated and the request sent; OnBind and
	// OnRetire will be invoked.
	Miss
	// Conflict: a pending MSHR holds the same line; retry after a
	// retirement.
	Conflict
	// Full: all MSHRs are busy; retry after a retirement.
	Full
)

// Binder receives the two lifecycle callbacks of a miss. Bind fires
// when the value is available: for loads, the cycle the first word
// arrives; for writes and RMW, when the whole line is in and the
// operation performs. Retire fires when the line is installed and the
// MSHR freed: the access is globally performed, and Bind has always
// already run.
//
// The interface (rather than a pair of func fields) lets the processor
// hand the cache a pooled record with zero per-access allocations:
// storing a pointer in an interface value does not allocate, while
// constructing two capturing closures per access did.
type Binder interface {
	Bind()
	Retire()
}

// FuncBinder adapts plain functions to Binder; either may be nil.
// Tests and one-off callers use it — the simulator hot path passes
// pooled records instead.
type FuncBinder struct {
	OnBind   func()
	OnRetire func()
}

func (f *FuncBinder) Bind() {
	if f.OnBind != nil {
		f.OnBind()
	}
}

func (f *FuncBinder) Retire() {
	if f.OnRetire != nil {
		f.OnRetire()
	}
}

// Request is one processor access.
type Request struct {
	Kind Kind
	Addr uint64
	// Bypass marks the network request to enter at the head of the
	// interface buffer (WO2 loads).
	Bypass bool
	// On receives the miss lifecycle callbacks; nil is allowed (the
	// caller does not need to observe the fill, e.g. prefetches).
	On Binder
}

// Stats holds per-cache counters. Reads/Writes count demand accesses
// with a definitive outcome (hit or MSHR allocated), never retries of
// stalled accesses; RMW accesses count as writes.
type Stats struct {
	Reads              uint64
	ReadHits           uint64
	Writes             uint64
	WriteHits          uint64
	InvalidationMisses uint64 // demand misses on lines lost to coherence
	InvalidatesSeen    uint64 // Invalidate/RecallInv messages that hit a line
	Prefetches         uint64 // prefetch MSHRs allocated
	WriteBacks         uint64
	Conflicts          uint64 // Conflict outcomes returned
	Fulls              uint64 // Full outcomes returned
}

// line is one cache way. It is plain data and a snapshot carries the
// whole lines slab verbatim, Invalid ways included: victim selection
// scans ways in order, so their contents decide replacements.
type line struct {
	Tag   uint64 // line-aligned address
	State State
	Dirty bool
	LRU   uint64
}

// miss is the data half of an MSHR, carried verbatim by a snapshot.
type miss struct {
	Valid    bool
	Line     uint64
	Excl     bool
	Early    bool // bind at the first word even though Excl (ReadOwn)
	Prefetch bool
	IssuedAt sim.Cycle // when the request was sent (metrics)

	// Fill-in-progress state consumed by the bind and fill events.
	FillExcl bool
	LateBind bool // Bind deferred to installation (exclusive fetches)
}

type mshr struct {
	miss
	on Binder // saved and re-linked by its owner (Binders, LinkBinder)
}

// Cache is one processor's shared-data cache.
type Cache struct {
	eng      *sim.Engine
	id       int
	lineSize int
	words    int
	numSets  int
	assoc    int

	lines []line // numSets sets of assoc ways each, one allocation; see set
	mshr  []mshr

	// send hands a protocol message to the request network; false
	// means the interface buffer is full (the cache queues internally
	// and retries via whenSpace).
	send      func(msg memory.Msg, bypass bool) bool
	whenSpace func(fn func())
	outq      []outPkt
	outHead   int         // index of the first unsent packet in outq
	drainFn   func()      // prebuilt retry callback for whenSpace
	handler   sim.Handler // prebuilt c.fire, the one engine handler

	// invalidated remembers lines removed by coherence so the next
	// demand miss on them counts as an invalidation miss.
	invalidated map[uint64]bool

	// onRetireAny is invoked after every MSHR retirement; the
	// processor uses it to re-evaluate stalled accesses.
	onRetireAny func()

	// watchLine/watchFn is the processor's spin-park watch: fn fires
	// (once) the moment the line's local state next changes. At most
	// one watch is ever active — the cache's single processor has a
	// single spin (cpu/spin.go).
	watchLine uint64
	watchFn   func()

	lruClock uint64
	stats    Stats
	mc       *metrics.Collector // nil: no metrics collection
}

// Config sizes a cache.
type Config struct {
	Size     int // total bytes
	LineSize int // bytes
	Assoc    int // ways
	MSHRs    int
}

// New builds a cache. send/whenSpace attach it to the request network.
func New(eng *sim.Engine, id int, cfg Config, send func(msg memory.Msg, bypass bool) bool, whenSpace func(fn func())) *Cache {
	c := &Cache{eng: eng, id: id, send: send, whenSpace: whenSpace, invalidated: make(map[uint64]bool)}
	c.drainFn = c.drainOut
	c.handler = c.fire
	c.Reset(cfg)
	return c
}

// Reset returns the cache to the state New leaves it in, under any
// configuration: every way Invalid, every MSHR free, nothing queued,
// counters zero, no line watch, no collector. The attachments stand,
// and the slabs and the output queue where they are big enough.
func (c *Cache) Reset(cfg Config) {
	if cfg.LineSize <= 0 || cfg.LineSize%8 != 0 {
		panic(fmt.Sprintf("cache: bad line size %d", cfg.LineSize))
	}
	if cfg.Assoc <= 0 || cfg.Size%(cfg.LineSize*cfg.Assoc) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets of %dB lines", cfg.Size, cfg.Assoc, cfg.LineSize))
	}
	c.lineSize = cfg.LineSize
	c.words = cfg.LineSize / 8
	c.assoc = cfg.Assoc
	c.numSets = cfg.Size / (cfg.LineSize * cfg.Assoc)

	if n := c.numSets * c.assoc; n <= cap(c.lines) {
		c.lines = c.lines[:n]
		clear(c.lines)
	} else {
		c.lines = make([]line, n)
	}
	if cfg.MSHRs <= cap(c.mshr) {
		c.mshr = c.mshr[:cfg.MSHRs]
		clear(c.mshr)
	} else {
		c.mshr = make([]mshr, cfg.MSHRs)
	}
	c.outq, c.outHead = c.outq[:0], 0
	clear(c.invalidated)
	c.watchLine, c.watchFn = 0, nil
	c.lruClock = 0
	c.stats = Stats{}
	c.mc = nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetMetrics attaches a cycle-attribution collector (nil disables).
// The cache reports line-fill latencies; collection never changes
// timing.
func (c *Cache) SetMetrics(mc *metrics.Collector) { c.mc = mc }

// fail raises a structured protocol error for this cache; it unwinds
// to Machine.Run rather than returning.
func (c *Cache) fail(op string, line uint64, format string, args ...interface{}) {
	robust.Raisef("cache", c.id, c.eng.Now(), op, line, format, args...)
}

// OnRetireAny registers the processor's retirement listener (at most
// one).
func (c *Cache) OnRetireAny(fn func()) {
	if c.onRetireAny != nil {
		panic("cache: OnRetireAny already registered")
	}
	c.onRetireAny = fn
}

// Outstanding returns the number of valid MSHRs (including prefetches).
func (c *Cache) Outstanding() int {
	n := 0
	for i := range c.mshr {
		if c.mshr[i].Valid {
			n++
		}
	}
	return n
}

// LineAddr aligns addr down to its line.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.lineSize-1)
}

func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr / uint64(c.lineSize)) % uint64(c.numSets))
}

// set returns the ways of set i.
func (c *Cache) set(i int) []line { return c.lines[i*c.assoc : (i+1)*c.assoc] }

// lookup returns the way holding lineAddr, or nil.
func (c *Cache) lookup(lineAddr uint64) *line {
	set := c.set(c.setIndex(lineAddr))
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// pendingMSHR returns the index of the MSHR holding lineAddr, or -1.
func (c *Cache) pendingMSHR(lineAddr uint64) int {
	for i := range c.mshr {
		if c.mshr[i].Valid && c.mshr[i].Line == lineAddr {
			return i
		}
	}
	return -1
}

// freeMSHR returns an invalid MSHR, or nil.
func (c *Cache) freeMSHR() *mshr {
	for i := range c.mshr {
		if !c.mshr[i].Valid {
			return &c.mshr[i]
		}
	}
	return nil
}

// WatchLine registers fn to fire whenever lineAddr's local state
// changes for any reason — invalidation, recall (either flavor), or
// eviction by a fill. The watch persists until Unwatch.
func (c *Cache) WatchLine(lineAddr uint64, fn func()) {
	if c.watchFn != nil {
		panic("cache: line watch already registered")
	}
	c.watchLine = lineAddr
	c.watchFn = fn
}

// Unwatch removes the active line watch; the processor calls it when
// the spin park resumes live execution.
func (c *Cache) Unwatch() { c.watchFn = nil }

// notifyWatch fires the watch callback if it covers lineAddr. The
// callback only schedules the processor's own wake, once, and touches
// nothing of the cache, so firing repeatedly or at any point inside
// message handling is safe. The watch stays registered until Unwatch —
// line protection in victim selection must persist until the
// processor's deferred LRU touches are applied at resume.
func (c *Cache) notifyWatch(lineAddr uint64) {
	if c.watchFn != nil && c.watchLine == lineAddr {
		c.watchFn()
	}
}

// watchProtected reports whether a valid way holds the watched line.
// A spinning processor re-references its line every few cycles, so in
// un-skipped execution it is always the set's most recently used way
// and never the eviction victim; selection must honor that even
// though idle-skip defers the LRU touches until wake.
func (c *Cache) watchProtected(ln *line) bool {
	return c.watchFn != nil && ln.State != Invalid && ln.Tag == c.watchLine
}

// SpinTouches replays the cache-side effect of n spin-loop read hits
// on lineAddr, batched at wake: per-access counters and the LRU
// clock/stamp advance exactly as n Access(Read) hits would have. The
// line may already be gone (an invalidation is what ends most spins);
// the clock still advances as it did in un-skipped execution.
func (c *Cache) SpinTouches(lineAddr uint64, n uint64) {
	c.lruClock += n
	if ln := c.lookup(lineAddr); ln != nil {
		ln.LRU = c.lruClock
	}
	c.stats.Reads += n
	c.stats.ReadHits += n
}

// Probe reports whether an access of the given kind would hit right
// now, without performing it or touching any counter. Used by the
// processor to decide SC2 prefetching and by tests.
func (c *Cache) Probe(kind Kind, addr uint64) bool {
	ln := c.lookup(c.LineAddr(addr))
	if ln == nil {
		return false
	}
	if kind == Write || kind == RMW || kind == ReadOwn || kind == PrefetchWrite {
		return ln.State == Exclusive
	}
	return true
}

// Access attempts a processor access. See Outcome for the contract.
func (c *Cache) Access(r Request) Outcome {
	lineAddr := c.LineAddr(r.Addr)
	ln := c.lookup(lineAddr)
	c.lruClock++

	switch r.Kind {
	case Read:
		if ln != nil {
			ln.LRU = c.lruClock
			c.stats.Reads++
			c.stats.ReadHits++
			return Hit
		}
		return c.missDemand(r, lineAddr, false)

	case ReadOwn:
		// A load carrying write intent (the "read with ownership"
		// request the paper's §3.3 calls for): it reads a value but
		// fetches the line exclusively so the expected store hits.
		if ln != nil && ln.State == Exclusive {
			ln.LRU = c.lruClock
			c.stats.Reads++
			c.stats.ReadHits++
			return Hit
		}
		if ln != nil {
			ln.State = Invalid // upgrade: drop the shared copy
		}
		return c.missDemand(r, lineAddr, true)

	case Write, RMW:
		if ln != nil && ln.State == Exclusive {
			ln.LRU = c.lruClock
			ln.Dirty = true
			c.stats.Writes++
			c.stats.WriteHits++
			return Hit
		}
		if ln != nil {
			// Write to a Shared line: drop the copy and fetch with
			// ownership — counted as a write miss (§3.3). Not an
			// invalidation miss: we chose to drop it ourselves.
			ln.State = Invalid
		}
		return c.missDemand(r, lineAddr, true)

	case PrefetchRead, PrefetchWrite:
		return c.prefetch(r, lineAddr, ln)
	}
	panic(fmt.Sprintf("cache: unknown access kind %d", r.Kind))
}

// missDemand handles a demand miss: allocate an MSHR and request the
// line. excl requests ownership.
func (c *Cache) missDemand(r Request, lineAddr uint64, excl bool) Outcome {
	if c.pendingMSHR(lineAddr) >= 0 {
		c.stats.Conflicts++
		return Conflict
	}
	m := c.freeMSHR()
	if m == nil {
		c.stats.Fulls++
		return Full
	}
	if r.Kind == ReadOwn {
		c.stats.Reads++ // it is a load, whatever it fetches
	} else if excl {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if c.invalidated[lineAddr] {
		c.stats.InvalidationMisses++
		delete(c.invalidated, lineAddr)
	}
	*m = mshr{}
	m.Valid = true
	m.Line = lineAddr
	m.Excl = excl
	m.Early = r.Kind == ReadOwn
	m.IssuedAt = c.eng.Now()
	m.on = r.On
	kind := memory.ReadReq
	if excl {
		kind = memory.WriteReq
	}
	c.enqueue(memory.Msg{Kind: kind, Line: lineAddr}, r.Bypass)
	return Miss
}

// prefetch handles a non-binding prefetch.
func (c *Cache) prefetch(r Request, lineAddr uint64, ln *line) Outcome {
	excl := r.Kind == PrefetchWrite
	if ln != nil {
		if !excl || ln.State == Exclusive {
			return Hit // nothing to do
		}
		// Write-intent prefetch of a Shared line: upgrade early.
		ln.State = Invalid
	}
	if c.pendingMSHR(lineAddr) >= 0 {
		return Hit // already on its way
	}
	m := c.freeMSHR()
	if m == nil {
		return Full
	}
	*m = mshr{}
	m.Valid = true
	m.Line = lineAddr
	m.Excl = excl
	m.Prefetch = true
	m.IssuedAt = c.eng.Now()
	c.stats.Prefetches++
	kind := memory.ReadReq
	if excl {
		kind = memory.WriteReq
	}
	c.enqueue(memory.Msg{Kind: kind, Line: lineAddr}, false)
	return Miss
}

// Receive handles a response-network message whose header flit arrived
// this cycle.
func (c *Cache) Receive(msg memory.Msg) {
	switch msg.Kind {
	case memory.DataShared, memory.DataExclusive:
		c.receiveData(msg)
	case memory.Invalidate:
		if ln := c.lookup(msg.Line); ln != nil {
			ln.State = Invalid
			c.invalidated[msg.Line] = true
			c.stats.InvalidatesSeen++
			c.notifyWatch(msg.Line)
		}
		c.enqueue(memory.Msg{Kind: memory.InvAck, Line: msg.Line}, false)
	case memory.RecallInv:
		if ln := c.lookup(msg.Line); ln != nil {
			if ln.State != Exclusive {
				c.fail(msg.Kind.String(), msg.Line, "recall of a line held %s, not exclusively", ln.State)
			}
			ln.State = Invalid
			c.invalidated[msg.Line] = true
			c.stats.InvalidatesSeen++
			c.notifyWatch(msg.Line)
			c.enqueue(memory.Msg{Kind: memory.FlushInv, Line: msg.Line}, false)
		} else {
			c.enqueue(memory.Msg{Kind: memory.InvAck, Line: msg.Line}, false)
		}
	case memory.RecallShare:
		if ln := c.lookup(msg.Line); ln != nil {
			if ln.State != Exclusive {
				c.fail(msg.Kind.String(), msg.Line, "recall of a line held %s, not exclusively", ln.State)
			}
			ln.State = Shared
			ln.Dirty = false
			c.notifyWatch(msg.Line)
			c.enqueue(memory.Msg{Kind: memory.FlushShare, Line: msg.Line}, false)
		} else {
			c.enqueue(memory.Msg{Kind: memory.InvAck, Line: msg.Line}, false)
		}
	default:
		c.fail(msg.Kind.String(), msg.Line, "cache received request-class message")
	}
}

// receiveData schedules value binding (first word, +1 cycle) and line
// installation/MSHR retirement (tail, +words cycles).
func (c *Cache) receiveData(msg memory.Msg) {
	i := c.pendingMSHR(msg.Line)
	if i < 0 {
		c.fail(msg.Kind.String(), msg.Line, "data arrived with no MSHR allocated")
	}
	m := &c.mshr[i]
	excl := msg.Kind == memory.DataExclusive
	if m.Excl && !excl {
		c.fail(msg.Kind.String(), msg.Line, "ownership request granted shared")
	}
	m.FillExcl = excl
	m.LateBind = false
	if m.on != nil {
		if !m.Excl || m.Early {
			// Loads bind at the first word (including ownership-fetching
			// loads: the value arrives before the ownership settles).
			c.eng.ScheduleAfter(1, c.handler, c.event(cacheEvBind, i))
		} else {
			m.LateBind = true
		}
	}
	c.eng.ScheduleAfter(sim.Cycle(c.words), c.handler, c.event(cacheEvFill, i))
}

// finishFill runs when a data message's tail has arrived: install the
// line, free the MSHR, perform a deferred bind, and retire.
func (c *Cache) finishFill(m *mshr) {
	lineAddr := m.Line
	c.install(lineAddr, m.FillExcl)
	c.mc.Fill(m.IssuedAt, c.eng.Now())
	on := m.on
	lateBind := m.LateBind
	*m = mshr{}
	// Writes and RMW perform once the whole line is in; mark the
	// line dirty before anyone else can act on the retirement.
	// (Prefetches never carry a binder, so they install clean.)
	if lateBind {
		if ln := c.lookup(lineAddr); ln != nil {
			ln.Dirty = true
		}
		on.Bind()
	}
	if on != nil {
		on.Retire()
	}
	if c.onRetireAny != nil {
		c.onRetireAny()
	}
}

// install places a granted line, evicting a victim if needed.
func (c *Cache) install(lineAddr uint64, excl bool) {
	set := c.set(c.setIndex(lineAddr))
	victim := -1
	for i := range set {
		if set[i].State == Invalid {
			victim = i
			break
		}
	}
	if victim < 0 {
		for i := range set {
			if c.watchProtected(&set[i]) {
				continue
			}
			if victim < 0 || set[i].LRU < set[victim].LRU {
				victim = i
			}
		}
		if victim < 0 {
			victim = 0 // direct-mapped set whose only way is being spun on
		}
		// Evicting the watched line ends its processor's spin at the
		// next iteration boundary.
		c.notifyWatch(set[victim].Tag)
		if set[victim].State == Exclusive {
			// Write back owned lines (clean or dirty) so the directory
			// learns the eviction; Shared lines leave silently.
			c.stats.WriteBacks++
			c.enqueue(memory.Msg{Kind: memory.WriteBack, Line: set[victim].Tag}, false)
		}
	}
	st := Shared
	if excl {
		st = Exclusive
	}
	c.lruClock++
	set[victim] = line{Tag: lineAddr, State: st, LRU: c.lruClock}
	delete(c.invalidated, lineAddr)
}

// outPkt is one output-queue entry awaiting network space.
type outPkt struct {
	Msg    memory.Msg
	Bypass bool
}

// enqueue hands a message to the request network, buffering internally
// while the interface buffer is full. The queue is drained from a head
// index (rather than resliced) so the backing array is reused and a
// steady-state send allocates nothing.
func (c *Cache) enqueue(msg memory.Msg, bypass bool) {
	c.outq = append(c.outq, outPkt{msg, bypass})
	if len(c.outq)-c.outHead == 1 {
		c.drainOut()
	}
}

func (c *Cache) drainOut() {
	for c.outHead < len(c.outq) {
		o := c.outq[c.outHead]
		if !c.send(o.Msg, o.Bypass) {
			c.whenSpace(c.drainFn)
			return
		}
		c.outHead++
	}
	c.outq = c.outq[:0]
	c.outHead = 0
}
