// Package network models the two multistage Omega interconnection
// networks of the simulated machine (one for processor-to-memory
// requests, one for memory-to-processor responses).
//
// The network is built from 4x4 switches: a machine with P endpoints
// uses n = ceil(log4 P) stages of output-port links. Routing is the
// classic Omega digit-replacement scheme, so every (source,
// destination) pair has exactly one path and messages between a pair
// are delivered in FIFO order.
//
// Timing follows the paper's §3.1: every stage is pipelined at one
// cycle per 8-byte flit, so a message of F flits occupies each link it
// crosses for F cycles while its head advances one stage per cycle
// (virtual cut-through with buffering at a blocked stage). A 4-entry
// buffer sits between each source and the first stage; when it fills
// the sender must hold the message and retry, which is how network
// back-pressure reaches the caches and memory modules.
//
// For the WO2 model, a message marked Bypass enters at the head of its
// entrance buffer, ahead of anything queued there (but not ahead of a
// message already being transmitted). This reproduces the paper's
// "simple, but slightly flawed" implementation in which a load could
// also bypass a queued load (§4.2.3).
package network

import (
	"fmt"

	"memsim/internal/memory"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Message is one packet traversing the network. The payload is the
// coherence-protocol message it carries, held as a concrete struct:
// the network never inspects it, but typing it (instead of an
// interface{} the machine layer asserted back) means injecting a
// message boxes nothing and the per-reference hot path stays
// allocation-free.
type Message struct {
	Src, Dst int  // endpoint indices in [0, Ports)
	Flits    int  // link occupancy in cycles (1 flit = 8 bytes)
	Bypass   bool // enter at the head of the entrance buffer (WO2 loads)
	Payload  memory.Msg
}

// Stats aggregates traffic counters for one network.
type Stats struct {
	Messages     uint64 // messages delivered
	Flits        uint64 // flits injected
	Bypasses     uint64 // messages that entered ahead of >=1 queued message
	BypassedOver uint64 // total queued messages jumped over
	QueueDelay   uint64 // cycles messages spent waiting for busy links
	Retries      uint64 // TrySend calls rejected because the buffer was full
	FaultDelays  uint64 // port services stretched by fault injection
	FaultCycles  uint64 // total extra cycles injected
}

// port is one link resource: an output port of a switch (or the
// entrance buffer serving a source). Service rate is one flit/cycle.
// The queue is consumed from head (an index, not a reslice) so its
// backing array is reused; freeFn is the prebuilt end-of-service
// callback (closing over the port identity once at construction).
type port struct {
	queue  []*transit
	head   int
	busy   bool
	freeFn func()
}

// qlen is the number of messages waiting in the port's queue.
func (p *port) qlen() int { return len(p.queue) - p.head }

// pop removes and returns the queue head.
func (p *port) pop() *transit {
	t := p.queue[p.head]
	p.queue[p.head] = nil
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	return t
}

// reset idles the port and drops whatever it had queued.
func (p *port) reset() {
	clear(p.queue)
	p.queue, p.head, p.busy = p.queue[:0], 0, false
}

// pushFront inserts ahead of everything queued (WO2 bypass).
func (p *port) pushFront(t *transit) {
	if p.head > 0 {
		p.head--
		p.queue[p.head] = t
		return
	}
	p.queue = append(p.queue, nil)
	copy(p.queue[1:], p.queue)
	p.queue[0] = t
}

// waiting is what a snapshot carries of a message queued at a port:
// the message and when it joined the queue. The hop is implied by which
// port holds it.
type waiting struct {
	Msg    Message
	Queued sim.Cycle // when it joined the current queue (for QueueDelay)
}

// transit is a message in flight plus its progress bookkeeping.
// Transits are pooled on the Network (free list through next) and
// carry a prebuilt advance callback, so injecting and forwarding a
// message allocates nothing in steady state.
type transit struct {
	waiting
	hop       int      // next hop index to be serviced: 0=entrance, 1..n=stages
	next      *transit // free-list link
	advanceFn func()
}

// Network is one Omega network instance.
type Network struct {
	eng    *sim.Engine
	ports  int // logical endpoints
	padded int // ports padded up to a power of 4
	stages int
	bufCap int

	entrance []port   // one per source
	links    [][]port // [stage][link index within padded ports]

	deliver func(dst int, m Message)
	onSpace []func() // per-source callback when entrance space frees
	tfree   *transit // transit record free list

	faults   *robust.Injector // nil: no fault injection
	inFlight int              // messages injected but not yet delivered
	unit     int32            // instance id in event descriptors (SetUnit)

	stats Stats
	mc    *metrics.Collector // nil: no metrics collection
	netid metrics.Net        // which network this is, for attribution
}

// New creates a network with the given endpoint count and entrance
// buffer capacity. deliver is invoked when a message's head arrives at
// its destination; the tail arrives Flits-1 cycles later (receivers
// that care, e.g. a cache waiting for a whole line, add that
// themselves).
func New(eng *sim.Engine, ports, bufCap int, deliver func(dst int, m Message)) *Network {
	if ports < 2 {
		panic(fmt.Sprintf("network: need at least 2 ports, got %d", ports))
	}
	padded, stages := 4, 1
	for padded < ports {
		padded *= 4
		stages++
	}
	n := &Network{
		eng:      eng,
		ports:    ports,
		padded:   padded,
		stages:   stages,
		entrance: make([]port, ports),
		links:    make([][]port, stages),
		deliver:  deliver,
		onSpace:  make([]func(), ports),
	}
	for s := range n.links {
		n.links[s] = make([]port, padded)
	}
	// Prebuild the end-of-service callbacks: entrance ports notify
	// their blocked sender, switch links do not.
	for i := range n.entrance {
		p, src := &n.entrance[i], i
		p.freeFn = func() {
			p.busy = false
			n.kick(p, src)
		}
	}
	for s := range n.links {
		for i := range n.links[s] {
			p := &n.links[s][i]
			p.freeFn = func() {
				p.busy = false
				n.kick(p, -1)
			}
		}
	}
	n.Reset(bufCap)
	return n
}

// Reset returns the network to the state New leaves it in, for any
// entrance buffer capacity: every port idle and empty (messages caught
// in flight are dropped), no sender waiting for space, counters zero,
// no fault injector, no collector.
func (n *Network) Reset(bufCap int) {
	if bufCap < 1 {
		panic(fmt.Sprintf("network: buffer capacity must be >= 1, got %d", bufCap))
	}
	n.bufCap = bufCap
	for i := range n.entrance {
		n.entrance[i].reset()
	}
	for s := range n.links {
		for i := range n.links[s] {
			n.links[s][i].reset()
		}
	}
	clear(n.onSpace)
	n.faults = nil
	n.inFlight = 0
	n.stats = Stats{}
	n.mc, n.netid = nil, 0
}

// allocTransit takes a pooled transit record for a fresh injection.
func (n *Network) allocTransit(m Message) *transit {
	t := n.tfree
	if t == nil {
		t = &transit{}
		t.advanceFn = func() { n.advance(t) }
	} else {
		n.tfree = t.next
	}
	t.Msg = m
	t.hop = 0
	t.Queued = n.eng.Now()
	t.next = nil
	return t
}

// freeTransit recycles a delivered transit.
func (n *Network) freeTransit(t *transit) {
	t.Msg = Message{}
	t.next = n.tfree
	n.tfree = t
}

// Ports returns the number of endpoints.
func (n *Network) Ports() int { return n.ports }

// Stages returns the number of switch stages (ceil(log4 ports)).
func (n *Network) Stages() int { return n.stages }

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// SetFaults installs a fault injector that stretches port service
// times (see robust.Faults). Call before the run starts; a nil
// injector disables injection.
func (n *Network) SetFaults(inj *robust.Injector) { n.faults = inj }

// SetMetrics attaches a cycle-attribution collector (nil disables).
// The network reports per-message queue delays and entrance-buffer
// back-pressure; collection never changes timing.
func (n *Network) SetMetrics(mc *metrics.Collector, which metrics.Net) {
	n.mc = mc
	n.netid = which
}

// Occupancy is a point-in-time view of the network's buffers for
// diagnostic dumps.
type Occupancy struct {
	Entrance []int // queued messages per source entrance buffer
	InFlight int   // messages injected but not yet delivered
}

// Occupancy snapshots buffer state. Read-only; safe at any cycle.
func (n *Network) Occupancy() Occupancy {
	o := Occupancy{Entrance: make([]int, n.ports), InFlight: n.inFlight}
	for i := range n.entrance {
		o.Entrance[i] = n.entrance[i].qlen()
	}
	return o
}

// HeadLatency is the uncontended cycles from TrySend to head delivery:
// one cycle through the entrance buffer plus one per stage.
func (n *Network) HeadLatency() int { return n.stages + 1 }

// linkAfter computes the Omega link index used after stage k (0-based)
// for a source/destination pair: the top 2(k+1) bits of the running
// address have been replaced by destination digits.
func (n *Network) linkAfter(src, dst, k int) int {
	shift := uint(2 * (n.stages - k - 1))
	mask := n.padded - 1
	return ((src << uint(2*(k+1))) | (dst >> shift)) & mask
}

// WhenSpace registers fn to be called (once per registration) the next
// time the entrance buffer for src has a free slot. Used by senders
// whose TrySend was rejected.
func (n *Network) WhenSpace(src int, fn func()) {
	if n.onSpace[src] != nil {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "network", Unit: src,
			Cycle: n.eng.Now(), Detail: "WhenSpace already registered for source"})
	}
	n.onSpace[src] = fn
}

// TrySend injects a message. It returns false, without side effects,
// if the source's entrance buffer is full; the sender should register
// a WhenSpace callback and retry.
func (n *Network) TrySend(m Message) bool {
	if m.Src < 0 || m.Src >= n.ports || m.Dst < 0 || m.Dst >= n.ports {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "network", Unit: m.Src,
			Cycle: n.eng.Now(), Detail: fmt.Sprintf("endpoint out of range in %+v", m)})
	}
	if m.Flits < 1 {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "network", Unit: m.Src,
			Cycle: n.eng.Now(), Detail: fmt.Sprintf("message with %d flits", m.Flits)})
	}
	p := &n.entrance[m.Src]
	if p.qlen() >= n.bufCap {
		n.stats.Retries++
		n.mc.NetRetry(n.netid, m.Src, n.eng.Now())
		return false
	}
	t := n.allocTransit(m)
	if m.Bypass && p.qlen() > 0 {
		n.stats.Bypasses++
		n.stats.BypassedOver += uint64(p.qlen())
		p.pushFront(t)
	} else {
		p.queue = append(p.queue, t)
	}
	n.stats.Flits += uint64(m.Flits)
	n.inFlight++
	n.kick(p, m.Src)
	return true
}

// portAt resolves the port resource for a transit at a given hop.
// Hop 0 is the entrance buffer; hop 1..stages are switch output links.
func (n *Network) portAt(t *transit) *port {
	if t.hop == 0 {
		return &n.entrance[t.Msg.Src]
	}
	stage := t.hop - 1
	return &n.links[stage][n.linkAfter(t.Msg.Src, t.Msg.Dst, stage)]
}

// kick starts service on a port if it is idle and has queued traffic.
// entranceSrc >= 0 identifies entrance ports so that freeing a slot can
// notify a blocked sender.
func (n *Network) kick(p *port, entranceSrc int) {
	if p.busy || p.qlen() == 0 {
		return
	}
	t := p.pop()
	p.busy = true
	n.stats.QueueDelay += uint64(n.eng.Now() - t.Queued)
	n.mc.NetWait(n.netid, n.eng.Now(), uint64(n.eng.Now()-t.Queued))
	flits := sim.Cycle(t.Msg.Flits)

	// Fault injection stretches this service: the head advances and
	// the port frees `extra` cycles late. Because the stretch applies
	// to the whole port service, per-port FIFO order — and with it
	// same-(source,destination) delivery order — is preserved.
	extra := sim.Cycle(n.faults.ExtraDelay())
	if extra > 0 {
		n.stats.FaultDelays++
		n.stats.FaultCycles += uint64(extra)
	}

	// Head advances to the next hop one cycle after service starts.
	n.eng.AfterEvent(1+extra, t.advanceFn, n.advanceDesc(t))
	// The link is busy for the full message length.
	n.eng.AfterEvent(flits+extra, p.freeFn, n.freeDesc(t))
	if entranceSrc >= 0 {
		// A slot freed the moment the head left the queue.
		if fn := n.onSpace[entranceSrc]; fn != nil {
			n.onSpace[entranceSrc] = nil
			// Run after the pop so the retry sees the free slot.
			d := n.desc(netEvSpace)
			d.A = uint64(entranceSrc)
			n.eng.AfterEvent(0, fn, d)
		}
	}
}

// advance moves a transit's head to its next hop or delivers it.
func (n *Network) advance(t *transit) {
	t.hop++
	if t.hop > n.stages {
		n.stats.Messages++
		n.inFlight--
		dst, msg := t.Msg.Dst, t.Msg
		n.freeTransit(t)
		n.deliver(dst, msg)
		return
	}
	t.Queued = n.eng.Now()
	p := n.portAt(t)
	p.queue = append(p.queue, t)
	n.kick(p, -1)
}
