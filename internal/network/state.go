package network

import (
	"fmt"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// Event kinds for network-owned engine events (sim.EventDesc.Kind).
const (
	// netEvAdvance fires when an in-service message's head moves to
	// its next hop. The message is in no port queue while in service,
	// so the descriptor carries it whole: A = line address, B = payload
	// kind | bypass<<8 | hop<<16 (the hop it is serviced at), C = src |
	// dst<<16 | flits<<32.
	netEvAdvance uint8 = iota + 1
	// netEvWake fires when a port with a queue frees: it serves the
	// head and re-arms while more wait.
	// A = hop index of the port (0 = entrance, s+1 = stage s),
	// B = source endpoint (entrance) or link index (stage).
	netEvWake
	// netEvSpace fires a deferred entrance-space notification.
	// A = source endpoint whose sender is being notified.
	netEvSpace
)

// SetUnit assigns the instance id used in this network's event
// descriptors (the machine tags its request network 0 and response
// network 1). Networks that are never snapshotted may leave it 0.
func (n *Network) SetUnit(u int32) { n.unit = u }

func (n *Network) event(kind uint8, a, b uint64) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompNet, Kind: kind, Unit: n.unit, A: a, B: b}
}

func (n *Network) advanceEvent(m Message, hop int) sim.EventDesc {
	d := n.event(netEvAdvance, m.Payload.Line, uint64(m.Payload.Kind)|uint64(hop)<<16)
	if m.Bypass {
		d.B |= 1 << 8
	}
	d.C = uint64(m.Src) | uint64(m.Dst)<<16 | uint64(m.Flits)<<32
	return d
}

// The fields of an advance event: the hop the message is serviced at,
// its route, its length, and the message whole.
func hopOf(d *sim.EventDesc) int            { return int(d.B >> 16 & 0xffff) }
func route(d *sim.EventDesc) (src, dst int) { return int(d.C & 0xffff), int(d.C >> 16 & 0xffff) }
func flits(d *sim.EventDesc) sim.Cycle      { return d.C >> 32 }

func message(d *sim.EventDesc) Message {
	src, dst := route(d)
	return Message{
		Src: src, Dst: dst, Flits: int(flits(d)), Bypass: d.B>>8&1 != 0,
		Payload: memory.Msg{Kind: memory.MsgKind(d.B & 0xff), Line: d.A},
	}
}

// fire runs one of the network's due events.
func (n *Network) fire(d *sim.EventDesc) {
	switch d.Kind {
	case netEvAdvance:
		// The head moves to its next hop, or is delivered. The same
		// descriptor, one hop on, is its advance event there.
		hop := hopOf(d) + 1
		if hop > n.stages {
			n.stats.Messages++
			n.inFlight--
			m := message(d)
			n.mc.Message(n.netid, true, n.eng.Now(), m.Src, m.Dst, m.Payload.Kind, m.Payload.Line)
			n.deliver(m.Dst, m)
			return
		}
		d.B += 1 << 16
		src, dst := route(d)
		idx := n.linkAfter(src, dst, hop-1)
		n.arrive(n.portAt(hop, idx), hop, idx, d, false)
	case netEvWake:
		hop, idx := int(d.A), int(d.B)
		p := n.portAt(hop, idx)
		w := n.pop(p)
		n.serve(p, hop, idx, &w.d, w.queued)
		if p.qlen > 0 {
			n.eng.Schedule(p.freeAt, n.handler, *d)
		}
	case netEvSpace:
		fn := n.spaceDue[d.A]
		n.spaceDue[d.A] = nil
		fn()
	default:
		panic(fmt.Sprintf("network %d: event of unknown kind %d", n.unit, d.Kind))
	}
}

// CheckEvent says whether fire can run a saved event and returns the
// handler that will. The network's ports must have been restored
// already. A space event carries a callback, which is not data: space
// resolves its source endpoint to the sender's entrance-space retry
// (the machine maps endpoints to cache or module drain functions), and
// CheckEvent puts it back where the event will look for it.
func (n *Network) CheckEvent(d sim.EventDesc, space func(src int) func()) (sim.Handler, error) {
	switch d.Kind {
	case netEvAdvance:
		m, hop := message(&d), hopOf(&d)
		if m.Src >= n.ports || m.Dst >= n.ports || hop > n.stages {
			return nil, fmt.Errorf("network: advance event out of range (src %d dst %d hop %d)", m.Src, m.Dst, hop)
		}
		if m.Flits < 1 {
			return nil, fmt.Errorf("network: advance event for a message of %d flits", m.Flits)
		}
	case netEvWake:
		if d.A > uint64(n.stages) || (d.A == 0 && d.B >= uint64(n.ports)) || d.B >= uint64(n.padded) {
			return nil, fmt.Errorf("network: wake event for port %d.%d outside %d ports and %d stages of %d links", d.A, d.B, n.ports, n.stages, n.padded)
		}
		if n.portAt(int(d.A), int(d.B)).qlen == 0 {
			return nil, fmt.Errorf("network: wake event for port %d.%d, which has nothing queued", d.A, d.B)
		}
	case netEvSpace:
		if d.A >= uint64(n.ports) {
			return nil, fmt.Errorf("network: space event for source %d of %d", d.A, n.ports)
		}
		fn := space(int(d.A))
		if fn == nil || n.spaceDue[d.A] != nil {
			return nil, fmt.Errorf("network: space event for source %d: no callback resolved, or a second event", d.A)
		}
		n.spaceDue[d.A] = fn
	default:
		return nil, fmt.Errorf("network: unknown event kind %d", d.Kind)
	}
	return n.handler, nil
}

// PortState is one link resource's snapshot: the cycle it frees and
// its waiting queue (head first). The message currently in service, if
// any, lives in the engine as a pending advance event, and a queue's
// wake as a wake event, not here.
type PortState struct {
	FreeAt sim.Cycle
	Queue  []waiting
}

// waiting is what a snapshot says of a queued message: the message and
// when it joined the queue. The hop is implied by which port holds it.
type waiting struct {
	Msg    Message
	Queued sim.Cycle
}

// NetState is the complete serializable state of a Network.
type NetState struct {
	Entrance []PortState
	Links    [][]PortState
	OnSpace  []bool // sources with a registered WhenSpace callback
	InFlight int
	Stats    Stats
}

func (n *Network) savePort(p *port) PortState {
	st := PortState{FreeAt: p.freeAt}
	for i, k := p.head, p.qlen; k > 0; i, k = n.held[i].next, k-1 {
		st.Queue = append(st.Queue, waiting{message(&n.held[i].d), n.held[i].queued})
	}
	return st
}

// Save captures the network's buffers, counters and registrations.
func (n *Network) Save() NetState {
	st := NetState{
		Entrance: make([]PortState, n.ports),
		Links:    make([][]PortState, n.stages),
		OnSpace:  make([]bool, n.ports),
		InFlight: n.inFlight,
		Stats:    n.stats,
	}
	for i := range n.entrance {
		st.Entrance[i] = n.savePort(&n.entrance[i])
		st.OnSpace[i] = n.onSpace[i] != nil
	}
	for s := range n.links {
		st.Links[s] = make([]PortState, n.padded)
		for i := range n.links[s] {
			st.Links[s][i] = n.savePort(&n.links[s][i])
		}
	}
	return st
}

// loadPort restores the port at hop.
func (n *Network) loadPort(p *port, st PortState, hop int) {
	p.freeAt = st.FreeAt
	for _, w := range st.Queue {
		d := n.advanceEvent(w.Msg, hop)
		n.push(p, &d, w.Queued, false)
	}
}

// Load restores a freshly constructed network from a snapshot. space
// resolves a source endpoint to its sender's entrance-space retry
// callback, used to re-register saved WhenSpace registrations.
func (n *Network) Load(st NetState, space func(src int) func()) error {
	if n.inFlight != 0 {
		return fmt.Errorf("network: Load on a used network (%d in flight)", n.inFlight)
	}
	if len(st.Entrance) != n.ports || len(st.Links) != n.stages || len(st.OnSpace) != n.ports {
		return fmt.Errorf("network: snapshot topology (%d ports, %d stages) does not match (%d ports, %d stages)",
			len(st.Entrance), len(st.Links), n.ports, n.stages)
	}
	for s := range st.Links {
		if len(st.Links[s]) != n.padded {
			return fmt.Errorf("network: snapshot stage %d has %d links, want %d", s, len(st.Links[s]), n.padded)
		}
	}
	for i := range n.entrance {
		n.loadPort(&n.entrance[i], st.Entrance[i], 0)
		if st.OnSpace[i] {
			fn := space(i)
			if fn == nil {
				return fmt.Errorf("network: no space callback resolved for source %d", i)
			}
			n.onSpace[i] = fn
		}
	}
	for s := range n.links {
		for i := range n.links[s] {
			n.loadPort(&n.links[s][i], st.Links[s][i], s+1)
		}
	}
	n.inFlight = st.InFlight
	n.stats = st.Stats
	return nil
}

// CheckWakes says whether the saved events, whose ports CheckEvent has
// vetted, give each port with a queue one wake, at the cycle it frees.
func (n *Network) CheckWakes(evs []sim.EventState) error {
	woken := make(map[*port]bool)
	for _, ev := range evs {
		if d := ev.Desc; d.Comp == sim.CompNet && d.Unit == n.unit && d.Kind == netEvWake {
			p := n.portAt(int(d.A), int(d.B))
			if woken[p] || ev.At != p.freeAt {
				return fmt.Errorf("network: a second wake for port %d.%d, or one at cycle %d when it frees at %d", d.A, d.B, ev.At, p.freeAt)
			}
			woken[p] = true
		}
	}
	for hop, ports := range append([][]port{n.entrance}, n.links...) {
		for idx := range ports {
			if ports[idx].qlen > 0 && !woken[&ports[idx]] {
				return fmt.Errorf("network: port %d.%d has a queue and no wake", hop, idx)
			}
		}
	}
	return nil
}
