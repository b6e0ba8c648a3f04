// Package trace provides a lightweight ring-buffer event recorder for
// debugging simulations: coherence messages, processor halts, and any
// other component events the machine layer chooses to record. Keeping
// the most recent N events makes post-mortem analysis of livelocks and
// protocol bugs cheap even in billion-event runs.
package trace

import (
	"fmt"
	"strings"

	"memsim/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds. ReqSend/RespSend fire when a message enters a network;
// ReqRecv/RespRecv when its head reaches the destination.
const (
	ReqSend Kind = iota
	ReqRecv
	RespSend
	RespRecv
	CPUHalt
	numKinds
)

func (k Kind) String() string {
	switch k {
	case ReqSend:
		return "req-send"
	case ReqRecv:
		return "req-recv"
	case RespSend:
		return "resp-send"
	case RespRecv:
		return "resp-recv"
	case CPUHalt:
		return "cpu-halt"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence. Src/Dst are endpoint ids (cache or
// module indices); What describes the payload (e.g. a protocol message
// kind, formatted only when printed); Addr is the line or word address
// involved.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	Src   int
	Dst   int
	What  fmt.Stringer
	Addr  uint64
}

func (e Event) String() string {
	switch e.Kind {
	case CPUHalt:
		return fmt.Sprintf("[%8d] cpu%-2d halt", e.Cycle, e.Src)
	default:
		return fmt.Sprintf("[%8d] %-9s %2d -> %-2d %-13s %#x",
			e.Cycle, e.Kind, e.Src, e.Dst, e.What, e.Addr)
	}
}

// Recorder keeps the most recent events in a ring buffer. The zero
// value is unusable; create with New. A nil *Recorder is safe to
// record into (no-op), so callers can thread an optional tracer
// without nil checks.
type Recorder struct {
	ring  []Event
	next  int
	count uint64
	mask  uint64 // enabled kinds bitmask
	addr  uint64 // address filter (0 = all)
	span  uint64 // filter span in bytes when addr != 0
}

// New creates a recorder holding the last capacity events with every
// kind enabled.
func New(capacity int) *Recorder {
	if capacity < 1 {
		panic("trace: capacity must be >= 1")
	}
	return &Recorder{ring: make([]Event, 0, capacity), mask: ^uint64(0)}
}

// EnableOnly restricts recording to the given kinds.
func (r *Recorder) EnableOnly(kinds ...Kind) {
	r.mask = 0
	for _, k := range kinds {
		r.mask |= 1 << uint(k)
	}
}

// FilterAddr restricts recording to events whose Addr falls within
// [base, base+span). Events with Addr 0 and kinds without addresses
// (CPUHalt) are always kept.
func (r *Recorder) FilterAddr(base, span uint64) {
	r.addr, r.span = base, span
}

// Record appends an event, evicting the oldest when full. Safe on a
// nil receiver.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.mask&(1<<uint(e.Kind)) == 0 {
		return
	}
	if r.addr != 0 && e.Kind != CPUHalt && (e.Addr < r.addr || e.Addr >= r.addr+r.span) {
		return
	}
	r.count++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % cap(r.ring)
}

// Total returns how many events were recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.count
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	var sb strings.Builder
	for _, e := range r.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
