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
// Its queue is a list through Network.held, the one store of queued
// messages. The message in service is in no queue: it is the port's
// pending advance event. The port has an event of its own, its wake at
// freeAt, exactly while its queue is non-empty.
type port struct {
	head, tail int32 // first and last queued message in Network.held; 0: none
	qlen       int32
	freeAt     sim.Cycle // the first cycle the port is not transmitting
}

// held is a message in a port's queue, in the form it has everywhere
// between TrySend and delivery: the advance event that will carry it
// on from this port. Nothing on the way decodes it.
type held struct {
	d      sim.EventDesc
	queued sim.Cycle // when it joined the queue (for QueueDelay)
	next   int32     // the message behind it, or the next free slot
}

// push queues the message d, which reached port p at cycle queued, at
// the back or (WO2 bypass) ahead of everything queued. The slot comes
// off the free list, and the store grows only when that is empty: its
// size follows the most messages the network ever had waiting at once.
func (n *Network) push(p *port, d *sim.EventDesc, queued sim.Cycle, front bool) {
	i := n.free
	if i != 0 {
		n.free = n.held[i].next
	} else {
		if n.held == nil {
			n.held = make([]held, 1, 4) // slot 0 reserved as "none"
		}
		n.held = append(n.held, held{})
		i = int32(len(n.held) - 1)
	}
	n.held[i] = held{d: *d, queued: queued}
	switch {
	case p.qlen == 0:
		p.head, p.tail = i, i
	case front:
		n.held[i].next = p.head
		p.head = i
	default:
		n.held[p.tail].next = i
		p.tail = i
	}
	p.qlen++
}

// pop removes and returns the head of p's queue.
func (n *Network) pop(p *port) held {
	i := p.head
	w := n.held[i]
	p.head = w.next
	p.qlen--
	n.held[i].next = n.free
	n.free = i
	return w
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

	held []held // queued messages, slot 0 reserved; ports link into it
	free int32  // free-list head (0: empty)

	deliver func(dst int, m Message)
	handler sim.Handler // prebuilt n.fire, the one engine handler
	// onSpace holds each source's callback for when entrance space
	// frees; when it does, the callback moves to spaceDue until the
	// space event scheduled for it runs it.
	onSpace  []func()
	spaceDue []func()

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
		spaceDue: make([]func(), ports),
	}
	n.handler = n.fire
	for s := range n.links {
		n.links[s] = make([]port, padded)
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
	clear(n.entrance)
	for s := range n.links {
		clear(n.links[s])
	}
	n.held, n.free = n.held[:min(len(n.held), 1)], 0
	clear(n.onSpace)
	clear(n.spaceDue)
	n.faults = nil
	n.inFlight = 0
	n.stats = Stats{}
	n.mc, n.netid = nil, 0
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
		o.Entrance[i] = int(n.entrance[i].qlen)
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
	waiting := int(p.qlen)
	if waiting > 0 && n.eng.Now() >= p.freeAt {
		waiting-- // the head is in service from this cycle's first moment
	}
	if waiting >= n.bufCap {
		n.stats.Retries++
		n.mc.NetRetry(n.netid, m.Src, n.eng.Now())
		return false
	}
	n.stats.Flits += uint64(m.Flits)
	n.inFlight++
	d := n.advanceEvent(m, 0)
	// A bypass is sent by a processor or a space grant, after any wake
	// of its cycle: the head it goes ahead of is never due now.
	front := m.Bypass && p.qlen > 0
	if front {
		n.stats.Bypasses++
		n.stats.BypassedOver += uint64(p.qlen)
	}
	n.arrive(p, 0, m.Src, &d, front)
	return true
}

// portAt resolves a port: hop 0 is the entrance buffer of source idx,
// hop 1..stages the switch output link idx of stage hop-1.
func (n *Network) portAt(hop, idx int) *port {
	if hop == 0 {
		return &n.entrance[idx]
	}
	return &n.links[hop-1][idx]
}

// arrive hands d to port p at (hop, idx): served at once by a port that
// has freed with nothing queued, else queued (at the front for a WO2
// bypass), the first to queue arming the port's wake.
func (n *Network) arrive(p *port, hop, idx int, d *sim.EventDesc, front bool) {
	if p.qlen == 0 && n.eng.Now() >= p.freeAt {
		n.serve(p, hop, idx, d, n.eng.Now())
		return
	}
	n.push(p, d, n.eng.Now(), front)
	if p.qlen == 1 {
		n.eng.Schedule(p.freeAt, n.handler, n.event(netEvWake, uint64(hop), uint64(idx)))
	}
}

// serve starts service of the message d, which reached the port at
// cycle queued, on the free port p at (hop, idx): the head advances a
// cycle later and the port is busy for the message's length.
func (n *Network) serve(p *port, hop, idx int, d *sim.EventDesc, queued sim.Cycle) {
	n.stats.QueueDelay += uint64(n.eng.Now() - queued)
	n.mc.NetWait(n.netid, n.eng.Now(), uint64(n.eng.Now()-queued))

	// Fault injection stretches this service: the head advances and
	// the port frees `extra` cycles late. Because the stretch applies
	// to the whole port service, per-port FIFO order — and with it
	// same-(source,destination) delivery order — is preserved.
	extra := sim.Cycle(n.faults.ExtraDelay())
	if extra > 0 {
		n.stats.FaultDelays++
		n.stats.FaultCycles += uint64(extra)
	}
	n.eng.ScheduleAfter(1+extra, n.handler, *d)
	p.freeAt = n.eng.Now() + flits(d) + extra
	if hop == 0 {
		// The head leaving the entrance buffer frees a slot: notify a
		// blocked sender, in an event of its own so the retry runs
		// after this one and sees the free slot.
		if fn := n.onSpace[idx]; fn != nil {
			n.onSpace[idx] = nil
			n.spaceDue[idx] = fn
			n.eng.ScheduleAfter(0, n.handler, n.event(netEvSpace, uint64(idx), 0))
		}
	}
}
