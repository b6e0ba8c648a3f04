package cpu

import (
	"memsim/internal/cache"
	"memsim/internal/isa"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Spin-wait fast-forward (the idle-skip engine; DESIGN.md §15 is the
// long form).
//
// A processor spinning on a shared flag or lock repeats a load and a
// branch back to it once per period p, each iteration a full processor
// event, and the outcome cannot change until another processor's
// coherence action reaches this cache. The fast-forward detects such a
// loop and parks the processor with nothing pending in the engine at
// all. The cache calls spinNotice the moment the watched line's local
// state changes — invalidation, recall, or eviction — and that
// schedules the processor at the first iteration boundary T0 + k·p not
// before the change. The run event there first replays the k skipped
// iterations arithmetically (instruction counts, sync-op counts,
// interlock stalls, cache hit counters, LRU touches, metrics
// observations, the final register write) and then executes the
// current one live.
//
// It is exact because a processor's event has a fixed place in its
// cycle (package sim): after every delivery, whenever it was
// scheduled. An un-skipped load at cycle c sees exactly the deliveries
// of cycles <= c, and so does the wake, whenever the notice came —
// under fault injection too: a jittered delivery is still a delivery
// at one cycle. The replay also rests on value stability (a shared
// value changes only after every other copy of its line has been
// invalidated or recalled, so while the local line state is unchanged
// every boundary stands for a load that hits and a branch that loops)
// and on period stability (the engagement predicate verifies that the
// loop reads no register anything else can change, so every skipped
// iteration takes exactly p cycles).

// spinTry runs at the load's resynchronization point, before an event
// for future cycle t is scheduled. It returns true when the processor
// is now spin-parked instead, with no event at all; false means the
// caller schedules the load normally.
//
// Engagement requires one confirming live iteration: the previous
// resync of this same load predicted exactly this cycle. That live
// iteration pins everything the replay formulas assume — hit outcome,
// loop period, cleared prefetch flag — in steady state.
func (c *CPU) spinTry(in *isa.Inst, addr uint64, t sim.Cycle) bool {
	if !c.spinFF || in.Op != isa.LD || in.Rd == isa.R0 || in.Rs1 == in.Rd {
		return false
	}
	// Shape: LD rd, off(rs1); conditional branch back to the load,
	// comparing rd against a register the loop never writes.
	bpc := c.core.PC + 1
	if bpc >= len(c.prog) {
		return false
	}
	br := &c.prog[bpc]
	switch br.Op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
	default:
		return false
	}
	if int(br.Imm) != c.core.PC {
		return false
	}
	var other isa.Reg
	switch {
	case br.Rs1 == in.Rd && br.Rs2 != in.Rd:
		other = br.Rs2
	case br.Rs2 == in.Rd && br.Rs1 != in.Rd:
		other = br.Rs1
	default:
		return false
	}
	// Quiescence: nothing in flight may retire mid-spin (it would
	// perturb stall accounting), and every register the loop reads must
	// already be stable.
	if c.core.Outstanding != 0 || c.core.Release.Active || c.core.WBLen != 0 || c.awaiting != nil {
		return false
	}
	if c.core.RegPending[in.Rd] || c.core.RegPending[in.Rs1] || c.core.RegPending[other] {
		return false
	}
	if c.core.RegReady[in.Rd] > t || c.core.RegReady[in.Rs1] > t || c.core.RegReady[other] > t {
		return false
	}
	var p sim.Cycle
	var syncCl bool
	switch c.effectiveClass(in.Class) {
	case isa.ClassPlain:
		if c.core.PrefetchFired {
			return false
		}
		// Load at T, branch interlocks until T+loadDelay, branch delay.
		p = c.loadDelay + c.branchDelay
	case isa.ClassSync, isa.ClassAcquire:
		// Sync load hits hold the processor for the load delay (extra).
		syncCl = true
		p = 1 + c.loadDelay + c.branchDelay
	default:
		return false
	}
	// The load must hit as a plain read (any valid state) and the value
	// it would bind must keep the branch looping.
	if !c.cache.Probe(cache.Read, addr) {
		return false
	}
	v := c.mem.ReadWord(addr)
	a, b := v, c.core.Regs[other]
	if br.Rs2 == in.Rd {
		a, b = b, a
	}
	if !branchTaken(br.Op, a, b) {
		return false
	}
	if c.core.PC != c.core.SpinPC || t != c.core.SpinNextT || p != c.core.SpinPeriod {
		// First sighting at this cadence: predict the next iteration's
		// resync and engage there if it confirms.
		c.core.SpinPC, c.core.SpinNextT, c.core.SpinPeriod = c.core.PC, t+p, p
		return false
	}
	c.core.Spinning = true
	c.core.SpinStale = false
	c.core.SpinT0 = t
	c.core.SpinSync = syncCl
	c.core.SpinAddr = addr
	c.core.SpinVal = v
	c.core.SpinRd = in.Rd
	c.cache.WatchLine(c.cache.LineAddr(addr), c.spinNoticeFn)
	return true
}

// spinNotice is the cache's line-watch callback: the watched line's
// local state changed in a delivery of the current cycle. The first
// notice schedules the processor at the first iteration boundary not
// before now; later ones find that done, so it is safe to fire any
// number of times, at any point inside the cache's message handling.
func (c *CPU) spinNotice() {
	if c.core.SpinStale {
		return
	}
	c.core.SpinStale = true
	now, at := c.eng.Now(), c.core.SpinT0
	if now > at {
		p := c.core.SpinPeriod
		at += (now - at + p - 1) / p * p
	}
	if at == now && c.eng.ProcessorPhase() {
		// Not a delivery: this processor's load may be due before the notifier.
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "cpu", Unit: c.id, Cycle: now,
			Line: c.SpinLine(), HasLine: true,
			Detail: "watched line changed inside the processor phase of the spin's own boundary cycle"})
	}
	c.schedule(at)
}

// spinResume is the prologue of the run event spinNotice scheduled:
// replay every iteration whose load ran before the state change, then
// let run execute the current one live.
func (c *CPU) spinResume() {
	if !c.core.SpinStale {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "cpu", Unit: c.id,
			Cycle: c.eng.Now(), Detail: "run event for a spin-parked processor whose line has not changed"})
	}
	now := c.eng.Now()
	c.core.Spinning = false
	c.core.SpinStale = false
	c.cache.Unwatch()
	// The loads at SpinT0 .. now-p ran before the state change; the one
	// at now runs live.
	k := (now - c.core.SpinT0) / c.core.SpinPeriod
	if k > 0 {
		kk := uint64(k)
		c.core.Stats.Instructions += 2 * kk
		if c.prog[c.core.SpinPC].Class != isa.ClassPlain {
			c.core.SyncInstrs += kk // statically sync-classed spin load
		}
		if c.core.SpinSync {
			c.core.Stats.SyncOps += kk
		} else if c.loadDelay > 1 {
			c.core.Stats.StallInterlock += kk * uint64(c.loadDelay-1)
		}
		c.cache.SpinTouches(c.SpinLine(), kk)
		if c.mc != nil {
			for i := sim.Cycle(0); i < k; i++ {
				ti := uint64(c.core.SpinT0 + i*c.core.SpinPeriod)
				ld := uint64(c.loadDelay)
				if c.core.SpinSync {
					c.mc.Ref(metrics.RefSync, ti, ti+ld)
				} else {
					c.mc.Ref(metrics.RefReadHit, ti, ti+ld)
					if ld > 1 {
						c.mc.Stall(c.id, metrics.CauseInterlock, ti+1, ld-1)
					}
				}
			}
		}
		c.setReg(c.core.SpinRd, c.core.SpinVal, c.core.SpinT0+(k-1)*c.core.SpinPeriod+c.loadDelay)
	}
	// If the live iteration still hits and loops (a recall that left
	// the line Shared), its resync re-engages at now+p.
	c.core.SpinNextT = now + c.core.SpinPeriod
}

// SpinLine returns the line a spin-parked processor (ParkedReason
// "spin") watches.
func (c *CPU) SpinLine() uint64 { return c.cache.LineAddr(c.core.SpinAddr) }

// SpinVirtualInstrs returns the instructions a spin-parked processor
// has virtually retired so far; they are credited to Stats only at
// replay. The watchdog adds them to its progress measure so a machine
// full of parked spinners is not mistaken for a stall.
func (c *CPU) SpinVirtualInstrs() uint64 {
	if !c.core.Spinning {
		return 0
	}
	now := c.eng.Now()
	if now < c.core.SpinT0 {
		return 0
	}
	return 2 * uint64((now-c.core.SpinT0)/c.core.SpinPeriod+1)
}
