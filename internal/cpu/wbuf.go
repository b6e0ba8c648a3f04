package cpu

import (
	"memsim/internal/cache"
	"memsim/internal/metrics"
	"memsim/internal/sim"
)

// The write buffer implements the store-side microarchitecture of the
// zoo models (TSO, PSO, PC): ordinary stores enter a small buffer and
// the processor moves on; entries drain to the cache in the background
// and ordinary loads forward from the newest matching entry
// (read-own-write-early).
//
// Ordering contract, enforced here:
//
//   - Drains issue only while the processor has no demand reference
//     outstanding, so a buffered store never performs ahead of a
//     program-earlier load that has not bound (R→W order).
//   - WBFIFO (TSO, PC): exactly one drain in flight, strictly oldest
//     first, and the next entry issues only after the previous one
//     retired — store-store order is preserved end to end.
//   - Per-line (PSO): every entry with no older live entry on the same
//     cache line may drain, so stores to different lines are in flight
//     concurrently and may perform out of order; same-line (hence
//     same-address) order is still preserved.
//   - Fences, sync-classed operations and HALT wait for the buffer to
//     empty (unless the WBLeak mutation seeds that exact defect).
//
// Entries retire possibly out of order under PSO, so retirement marks
// the entry and the ring pops its retired prefix.

// wbCap is the write-buffer depth. Deep enough that the litmus shapes
// never block on capacity, small enough that workloads exercise the
// buffer-full stall path.
const wbCap = 8

// wbEntry is one buffered store.
type wbEntry struct {
	Addr    uint64
	Value   uint64
	Seq     uint64 // drain sequence number (own space, distinct from MissSeq)
	Pushed  sim.Cycle
	Issued  bool // drain handed to the cache, not yet retired
	Retired bool // performed and retired; awaiting prefix pop
}

// wbEnabled reports whether this spec has a write buffer at all. Every
// write-buffer touchpoint in the CPU is gated on it, so the paper's
// original models are bit-identical to the pre-zoo implementation.
func (c *CPU) wbEnabled() bool { return c.spec.WriteBuffer }

// wbEmpty reports whether no buffered store remains (live or retired
// but unpopped; popping is eager, so len is the live count).
func (c *CPU) wbEmpty() bool { return c.core.WBLen == 0 }

// wbFull reports whether the buffer has no free slot.
func (c *CPU) wbFull() bool { return c.core.WBLen == wbCap }

// wbAt returns the i-th oldest entry.
func (c *CPU) wbAt(i int) *wbEntry { return &c.core.WB[(c.core.WBHead+i)%wbCap] }

// wbPush appends a store to the buffer. The caller checked wbFull.
func (c *CPU) wbPush(addr, value uint64, t sim.Cycle) {
	c.core.WBSeq++
	*c.wbAt(c.core.WBLen) = wbEntry{Addr: addr, Value: value, Seq: c.core.WBSeq, Pushed: t}
	c.core.WBLen++
}

// wbForward returns the value of the newest buffered store to addr, if
// any — the store-to-load forwarding path. Issued entries still
// forward (their value is what memory will hold); retired entries have
// been popped.
func (c *CPU) wbForward(addr uint64) (uint64, bool) {
	for i := c.core.WBLen - 1; i >= 0; i-- {
		if e := c.wbAt(i); e.Addr == addr {
			return e.Value, true
		}
	}
	return 0, false
}

// wbHasAddr reports whether any buffered store targets addr.
func (c *CPU) wbHasAddr(addr uint64) bool {
	_, ok := c.wbForward(addr)
	return ok
}

// wbIssueResult is the outcome of handing one drain to the cache.
type wbIssueResult uint8

const (
	wbIssued  wbIssueResult = iota // miss in flight; retires via the MSHR
	wbDrained                      // cache hit: performed and popped now
	wbRefused                      // Conflict/Full; retried after a retirement
)

// wbTick issues every currently eligible drain. Called after a push
// and from reconsider (i.e. after every own-cache retirement), which
// is also what retries entries previously refused with Conflict/Full.
func (c *CPU) wbTick() {
	if !c.wbEnabled() || c.core.WBLen == 0 {
		return
	}
	// R→W order: no drain while a demand reference is outstanding.
	if c.core.Outstanding > 0 {
		return
	}
	for i := 0; i < c.core.WBLen; i++ {
		e := c.wbAt(i)
		if e.Issued || e.Retired {
			if c.spec.WBFIFO {
				return // strictly one drain in flight
			}
			continue
		}
		if !c.spec.WBFIFO && c.wbLineBlocked(i) {
			continue
		}
		switch c.wbIssue(e) {
		case wbRefused:
			return // out of MSHRs or line conflict; retried on retirement
		case wbDrained:
			i = -1 // ring shifted under us; rescan (each pop shrinks it)
		case wbIssued:
			if c.spec.WBFIFO {
				return
			}
		}
	}
}

// wbLineBlocked reports whether an older live entry targets the same
// cache line as entry i (PSO's per-line order).
func (c *CPU) wbLineBlocked(i int) bool {
	line := c.cache.LineAddr(c.wbAt(i).Addr)
	for j := 0; j < i; j++ {
		e := c.wbAt(j)
		if !e.Retired && c.cache.LineAddr(e.Addr) == line {
			return true
		}
	}
	return false
}

// wbIssue hands one entry's drain to the cache.
func (c *CPU) wbIssue(e *wbEntry) wbIssueResult {
	po := c.allocOp()
	po.Op = 0 // drains dispatch on wbd, not the opcode
	po.Addr = e.Addr
	po.Value = e.Value
	po.Seq = e.Seq
	po.Issue = e.Pushed
	po.WBD = true
	switch c.cache.Access(cache.Request{Kind: cache.Write, Addr: e.Addr, On: po}) {
	case cache.Hit:
		c.freeOp(po)
		c.mem.WriteWord(e.Addr, e.Value)
		c.mc.Ref(metrics.RefWriteHit, e.Pushed, c.eng.Now()+1)
		e.Retired = true
		c.wbPop()
		return wbDrained
	case cache.Miss:
		e.Issued = true
		return wbIssued
	case cache.Conflict, cache.Full:
		c.freeOp(po)
		return wbRefused
	}
	panic("cpu: unknown cache outcome")
}

// wbBindDrain performs a drained store's functional side when the
// cache binds it (the line is owned).
func (c *CPU) wbBindDrain(p *pendingOp) {
	c.mem.WriteWord(p.Addr, p.Value)
	c.mc.Ref(metrics.RefWriteMiss, p.Issue, c.eng.Now())
}

// wbRetireDrain marks the entry retired and pops the retired prefix.
// cache.OnRetireAny fires afterwards and runs reconsider → wbTick, so
// newly unblocked entries issue and a buffer-full parked processor
// wakes.
func (c *CPU) wbRetireDrain(seq uint64) {
	for i := 0; i < c.core.WBLen; i++ {
		if e := c.wbAt(i); e.Seq == seq {
			e.Retired = true
			c.wbPop()
			return
		}
	}
	panic("cpu: write-buffer drain retired for unknown entry")
}

// wbPop removes the ring's retired prefix.
func (c *CPU) wbPop() {
	for c.core.WBLen > 0 && c.core.WB[c.core.WBHead].Retired {
		c.core.WB[c.core.WBHead] = wbEntry{}
		c.core.WBHead = (c.core.WBHead + 1) % wbCap
		c.core.WBLen--
	}
}

// wbDrainWait reports whether a fence, sync-classed operation or HALT
// must keep waiting for the buffer. The WBLeak mutation seeds the
// defect where fences and sync ops skip the wait; HALT always drains
// so final memory stays complete.
func (c *CPU) wbDrainWait() bool {
	return c.wbEnabled() && !c.spec.WBLeak && !c.wbEmpty()
}

// wbHaltWait is wbDrainWait for HALT: never leaked.
func (c *CPU) wbHaltWait() bool {
	return c.wbEnabled() && !c.wbEmpty()
}
