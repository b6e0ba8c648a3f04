package network

import (
	"fmt"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// Event kinds for network-owned engine events (sim.EventDesc.Kind).
const (
	// netEvAdvance fires when an in-service message's head moves to
	// its next hop. The descriptor carries the full transit: A = line
	// address, B = payload kind | bypass<<8 | hop<<16, C = src |
	// dst<<16 | flits<<32.
	netEvAdvance uint8 = iota + 1
	// netEvFree fires when a port finishes servicing a message.
	// A = hop index of the port (0 = entrance, s+1 = stage s),
	// B = source endpoint (entrance) or link index (stage).
	netEvFree
	// netEvSpace fires a deferred entrance-space notification.
	// A = source endpoint whose sender is being notified.
	netEvSpace
)

// SetUnit assigns the instance id used in this network's event
// descriptors (the machine tags its request network 0 and response
// network 1). Networks that are never snapshotted may leave it 0.
func (n *Network) SetUnit(u int32) { n.unit = u }

func (n *Network) desc(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompNet, Kind: kind, Unit: n.unit}
}

// advanceDesc serializes an in-service transit into its event
// descriptor. An in-service transit is referenced only by its pending
// advance event (it is in no port queue), so the descriptor must carry
// everything needed to rebuild it.
func (n *Network) advanceDesc(t *transit) sim.EventDesc {
	d := n.desc(netEvAdvance)
	d.A = t.Msg.Payload.Line
	d.B = uint64(t.Msg.Payload.Kind) | uint64(t.hop)<<16
	if t.Msg.Bypass {
		d.B |= 1 << 8
	}
	d.C = uint64(t.Msg.Src) | uint64(t.Msg.Dst)<<16 | uint64(t.Msg.Flits)<<32
	return d
}

// freeDesc identifies the port servicing transit t.
func (n *Network) freeDesc(t *transit) sim.EventDesc {
	d := n.desc(netEvFree)
	if t.hop == 0 {
		d.B = uint64(t.Msg.Src)
		return d
	}
	stage := t.hop - 1
	d.A = uint64(t.hop)
	d.B = uint64(n.linkAfter(t.Msg.Src, t.Msg.Dst, stage))
	return d
}

// RestoreEvent rebuilds the callback for a saved network event. space
// resolves a source endpoint to its sender's entrance-space retry
// callback (the machine maps endpoints to cache or module drain
// functions).
func (n *Network) RestoreEvent(d sim.EventDesc, space func(src int) func()) (func(), error) {
	switch d.Kind {
	case netEvAdvance:
		src := int(d.C & 0xffff)
		dst := int(d.C >> 16 & 0xffff)
		flits := int(d.C >> 32)
		hop := int(d.B >> 16 & 0xffff)
		if src < 0 || src >= n.ports || dst < 0 || dst >= n.ports || hop < 0 || hop > n.stages {
			return nil, fmt.Errorf("network: advance event out of range (src %d dst %d hop %d)", src, dst, hop)
		}
		t := n.allocTransit(Message{
			Src: src, Dst: dst, Flits: flits, Bypass: d.B>>8&1 != 0,
			Payload: memory.Msg{Kind: memory.MsgKind(d.B & 0xff), Line: d.A},
		})
		t.hop = hop
		return t.advanceFn, nil
	case netEvFree:
		if d.A == 0 {
			src := int(d.B)
			if src < 0 || src >= n.ports {
				return nil, fmt.Errorf("network: free event for entrance %d of %d", src, n.ports)
			}
			return n.entrance[src].freeFn, nil
		}
		stage := int(d.A) - 1
		if stage >= n.stages || int(d.B) >= n.padded {
			return nil, fmt.Errorf("network: free event for link %d.%d outside %d stages of %d", stage, d.B, n.stages, n.padded)
		}
		return n.links[stage][d.B].freeFn, nil
	case netEvSpace:
		src := int(d.A)
		if src < 0 || src >= n.ports {
			return nil, fmt.Errorf("network: space event for source %d of %d", src, n.ports)
		}
		fn := space(src)
		if fn == nil {
			return nil, fmt.Errorf("network: no space callback resolved for source %d", src)
		}
		return fn, nil
	}
	return nil, fmt.Errorf("network: unknown event kind %d", d.Kind)
}

// PortState is one link resource's snapshot: its busy flag and waiting
// queue (head first). The message currently in service, if any, lives
// in the engine as a pending advance event, not here.
type PortState struct {
	Busy  bool
	Queue []waiting
}

// NetState is the complete serializable state of a Network.
type NetState struct {
	Entrance []PortState
	Links    [][]PortState
	OnSpace  []bool // sources with a registered WhenSpace callback
	InFlight int
	Stats    Stats
}

func savePort(p *port) PortState {
	st := PortState{Busy: p.busy}
	for _, t := range p.queue[p.head:] {
		st.Queue = append(st.Queue, t.waiting)
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
		st.Entrance[i] = savePort(&n.entrance[i])
		st.OnSpace[i] = n.onSpace[i] != nil
	}
	for s := range n.links {
		st.Links[s] = make([]PortState, n.padded)
		for i := range n.links[s] {
			st.Links[s][i] = savePort(&n.links[s][i])
		}
	}
	return st
}

// loadPort rebuilds one port's queue; hop is the hop index transits in
// this queue are waiting for.
func (n *Network) loadPort(p *port, st PortState, hop int) {
	p.busy = st.Busy
	for _, w := range st.Queue {
		t := n.allocTransit(w.Msg)
		t.waiting = w
		t.hop = hop
		p.queue = append(p.queue, t)
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
