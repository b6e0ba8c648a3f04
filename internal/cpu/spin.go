package cpu

import (
	"memsim/internal/cache"
	"memsim/internal/isa"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Spin-wait fast-forward (the idle-skip engine, DESIGN.md §15).
//
// A processor spinning on a shared flag or lock executes the same
// two-instruction loop — a load and a conditional branch back to it —
// once per period, and on a big stalled machine those iterations
// dominate the run's wall clock: every one costs a full processor
// event (decode, cache lookup, branch resolution, statistics). Yet the
// loop's outcome cannot change until another processor's coherence
// action reaches this cache, because a store performs only after every
// other copy of the line has been invalidated or recalled.
//
// The fast-forward detects such a loop and replaces its iterations
// with a ghost event: a callback that checks one flag and reschedules
// itself one period ahead. The processor's cache raises that flag the
// moment the watched line's local state changes — invalidation,
// recall, or eviction — and the next ghost firing replays the skipped
// iterations arithmetically (instruction counts, sync-op counts,
// interlock stalls, cache hit counters, LRU touches, metrics
// observations, the final register write) and falls through to live
// execution of the current iteration.
//
// Exactness is by construction, not by argument about event order: the
// ghost is created at exactly the engine moments the un-skipped
// processor would create its per-iteration resynchronization events —
// same cycles, same intra-cycle creation order — so the calendar
// queue's tie-breaking, the event count, and the cycle at which the
// processor resumes live execution are identical to un-skipped
// execution by definition. What the fast-forward elides is only the
// per-iteration *work*:
//
//   - Value stability: shared values change only through stores, RMWs
//     and releases, all of which require exclusive ownership, granted
//     only after every sharer is invalidated (or the owner recalled).
//     While the local line state is unchanged, the loaded value is
//     unchanged, so every ghost firing with the flag down stands for a
//     load that hits and a branch that loops.
//   - Iteration boundary: a ghost firing at the same cycle as the
//     state-changing delivery was created a full period earlier, so it
//     fires first (creation order breaks same-cycle ties) and counts
//     as a pre-change hit — exactly as the un-skipped load would have.
//   - Period stability: the loop touches no register that anything
//     else can change (the engagement predicate verifies readiness and
//     quiescence), so every skipped iteration takes exactly p cycles.
//
// Fault injection needs no exception: a jittered delivery is still one
// engine event at one cycle, and it orders against the ghost exactly as
// it would against the live resynchronization event the ghost stands
// in for, so the fast-forward runs on faulted machines too
// (TestIdleSkipAB holds the two to equal checksums).

// spinTry runs at the load's resynchronization point, before an event
// for future cycle t is scheduled. It returns true when it scheduled a
// ghost event for cycle t instead (the processor is now spin-parked);
// false means the caller schedules the load normally.
//
// Engagement requires one confirming live iteration: the previous
// resync of this same load predicted exactly this cycle. That live
// iteration pins everything the replay formulas assume — hit outcome,
// loop period, cleared prefetch flag — in steady state.
func (c *CPU) spinTry(in isa.Inst, addr uint64, t sim.Cycle) bool {
	if !c.spinFF || in.Op != isa.LD || in.Rd == isa.R0 || in.Rs1 == in.Rd {
		return false
	}
	// Shape: LD rd, off(rs1); conditional branch back to the load,
	// comparing rd against a register the loop never writes.
	bpc := c.core.PC + 1
	if bpc >= len(c.prog) {
		return false
	}
	br := c.prog[bpc]
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
	// The ghost stands in for the run event the caller would have
	// scheduled: same cycle, created at the same moment.
	c.core.Scheduled = true
	c.eng.Schedule(t, c.handler, c.event(cpuEvSpin))
	c.cache.WatchLine(c.cache.LineAddr(addr), c.spinNoticeFn)
	return true
}

// spinNotice is the cache's line-watch callback: the watched line's
// local state changed at the current cycle. It only raises a flag —
// the already-scheduled ghost event does the work — so it is safe to
// fire any number of times, at any point inside the cache's message
// handling.
func (c *CPU) spinNotice() { c.core.SpinStale = true }

// spinGhost is one elided spin iteration. Flag down: the load would
// have hit the unchanged line and looped; stand in for it and
// reschedule one period ahead. Flag up: replay every iteration whose
// load ran before the state change, then fall through to live
// execution of the current one.
func (c *CPU) spinGhost() {
	if !c.core.Spinning {
		robust.Raise(&robust.SimError{Kind: robust.Protocol, Component: "cpu", Unit: c.id,
			Cycle: c.eng.Now(), Detail: "spin ghost event without an active spin"})
	}
	if !c.core.SpinStale {
		c.eng.ScheduleAfter(c.core.SpinPeriod, c.handler, c.event(cpuEvSpin))
		return
	}
	now := c.eng.Now()
	c.core.Spinning = false
	c.core.SpinStale = false
	c.cache.Unwatch()
	// Ghost firings at SpinT0 .. now-p stood in for loads that ran
	// before the state change; this firing's iteration runs live.
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
		c.cache.SpinTouches(c.cache.LineAddr(c.core.SpinAddr), kk)
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
	c.run()
}

// Spinning reports whether the processor is spin-parked on a watched
// line (diagnostics).
func (c *CPU) Spinning() bool { return c.core.Spinning }

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
