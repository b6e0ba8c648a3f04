// Package cpu implements the simulated RISC processor: an in-order
// core with a register scoreboard, non-blocking delayed loads, delayed
// branches, and per-consistency-model issue rules (§3.2 of the paper).
//
// Execution is event-driven but batched: runs of register-only and
// private-memory instructions execute inside one event (they cannot
// interact with any other component), and the processor yields to the
// discrete-event engine exactly at shared-memory accesses, fences and
// stalls, so global event ordering is preserved.
//
// Functional state: register values and private memory live here;
// shared-memory values live in the machine's flat image (the MemImage
// interface) and are read/written at the cycle an access performs —
// loads when their first word arrives, stores and test-and-sets when
// the line is owned. That keeps spin locks, barriers and flag
// synchronization timing-accurate across consistency models while the
// cache remains a pure tag/state model.
package cpu

import (
	"fmt"
	"math"

	"memsim/internal/cache"
	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// MemImage is the authoritative shared-memory value store.
type MemImage interface {
	ReadWord(addr uint64) uint64
	WriteWord(addr uint64, v uint64)
}

// Stats aggregates per-processor execution counters. Stall cycles are
// attributed to the condition that parked the processor; interlock
// cycles cover in-batch waits for register results (load/branch
// delays).
type Stats struct {
	Instructions uint64
	PrivReads    uint64
	PrivWrites   uint64
	SyncOps      uint64 // acquire/release/sync-classed ops + fences issued
	Releases     uint64 // background releases completed (RC)
	HaltCycle    sim.Cycle

	StallInterlock   uint64 // in-pipeline register wait (load/branch delay slots)
	StallLoadWait    uint64 // waiting for a register bound to an outstanding load miss
	StallOutstanding uint64 // SC: access blocked behind an outstanding one
	StallConflict    uint64 // pending-MSHR conflict or MSHR full
	StallDrain       uint64 // waiting for outstanding refs before a sync
	StallSync        uint64 // waiting for a sync op to complete
	StallBlocking    uint64 // blocking-load miss
	StallRelease     uint64 // second release while one pending
}

// parkReason labels why the processor is parked, for stall accounting.
type parkReason uint8

const (
	parkNone parkReason = iota
	parkRegs
	parkOutstanding
	parkConflict
	parkDrain
	parkSync
	parkBlocking
	parkRelease
	parkHalt
)

func (p parkReason) String() string {
	switch p {
	case parkNone:
		return "running"
	case parkRegs:
		return "regs"
	case parkOutstanding:
		return "outstanding"
	case parkConflict:
		return "conflict"
	case parkDrain:
		return "drain"
	case parkSync:
		return "sync"
	case parkBlocking:
		return "blocking"
	case parkRelease:
		return "release"
	case parkHalt:
		return "halt-drain"
	}
	return fmt.Sprintf("park(%d)", uint8(p))
}

// pendingRelease is RC's background release operation; at most one
// pends, and the zero value is "none".
type pendingRelease struct {
	Active    bool
	Addr      uint64
	Value     uint64
	WaitCount int       // outstanding refs at issue yet to retire
	Issued    bool      // handed to the cache
	IssuedAt  sim.Cycle // when the releasing store executed (metrics)
}

// notReady marks a register whose value awaits an outstanding miss.
const notReady = sim.Cycle(math.MaxUint64)

// maxBatch bounds the number of instructions executed without ever
// touching shared memory; exceeding it means a runaway local loop in
// the program under simulation.
const maxBatch = 10_000_000

// core is everything about a processor that changes as it runs, as
// plain data: a snapshot carries the struct verbatim (CPUState.Core),
// so a field added here is checkpointed by construction. What cannot
// live here — the awaited operation, a pooled pointer, and private
// memory, a map — is saved by CPU.Save in its own form.
type core struct {
	PC          int
	Regs        [isa.NumRegs]uint64
	RegReady    [isa.NumRegs]sim.Cycle
	RegPending  [isa.NumRegs]bool
	Outstanding int // demand misses in flight (excludes prefetches)
	MissSeq     uint64

	Halted    bool
	Scheduled bool
	Parked    bool
	ParkWhy   parkReason
	ParkCause metrics.StallCause
	ParkedAt  sim.Cycle

	AwaitWhy      parkReason // stall reason while the awaited op completes
	PrefetchFired bool       // one SC2 prefetch per stall episode

	Release        pendingRelease
	ReleaseBarrier uint64 // misses with seq <= barrier gate the release

	// Write buffer (TSO/PSO/PC): a ring of buffered ordinary stores.
	WB     [wbCap]wbEntry
	WBHead int
	WBLen  int
	WBSeq  uint64 // drain sequence numbers (own space, not MissSeq)

	// Spin-wait fast-forward (spin.go). SpinPC/SpinNextT/SpinPeriod
	// track detection (the candidate load and its predicted next
	// resync) and are meaningful even when not spinning: the
	// primed-then-confirm handshake must resume exactly where a snapshot
	// left it. The rest is the engaged park, which has no event pending
	// until the watched line changes. Spinning is distinct from Parked:
	// reconsider must never wake a spin park.
	Spinning   bool
	SpinStale  bool // the watched line's state changed; the wake is scheduled
	SpinPC     int
	SpinNextT  sim.Cycle
	SpinPeriod sim.Cycle
	SpinT0     sim.Cycle
	SpinSync   bool // sync/acquire-classed loop (vs plain)
	SpinAddr   uint64
	SpinVal    uint64
	SpinRd     isa.Reg

	// SyncInstrs counts retired instructions whose static class is a
	// synchronization flavor (acquire, release, sync), independent of
	// whether the consistency model's hardware treats them specially.
	// Stats.SyncOps is the model-visible count — zero under SC, where
	// sync accesses execute as ordinary shared accesses — so this is
	// the workload-level ground truth a report can always show. Kept
	// outside Stats: it must not perturb checksummed results.
	SyncInstrs uint64

	Stats Stats
}

// CPU is one simulated processor.
type CPU struct {
	eng   *sim.Engine
	id    int
	spec  consistency.Spec
	prog  []isa.Inst
	cache *cache.Cache
	mem   MemImage
	priv  *PrivMem

	loadDelay   sim.Cycle
	branchDelay sim.Cycle
	maxOut      int

	spinFF bool // spin fast-forward enabled (off under fault injection)

	core     core
	awaiting *pendingOp // issued sync/blocking op not yet complete

	// The interlock summary, derived from the register file: bit r of
	// pendMask is RegPending[r], and readyMax bounds the rest's RegReady.
	pendMask uint32
	readyMax sim.Cycle

	// opFree heads the pendingOp free list; handler is c.fire, built
	// once so that scheduling allocates nothing.
	opFree  *pendingOp
	handler sim.Handler

	spinNoticeFn func()

	onHalt func(id int)
	mc     *metrics.Collector // nil: no metrics collection
}

// Config carries the per-CPU construction parameters.
type Config struct {
	ID          int
	Spec        consistency.Spec
	Prog        []isa.Inst
	Cache       *cache.Cache
	Mem         MemImage
	LoadDelay   int
	BranchDelay int
	MSHRs       int  // machine MSHR count; bounds relaxed-model outstanding
	NoSpinSkip  bool // disable spin fast-forward
	OnHalt      func(id int)
}

// New builds a CPU. Registers are zeroed except the conventional RID,
// RNP and RSP values which the machine sets via SetReg after reset.
func New(eng *sim.Engine, cfg Config) *CPU {
	c := &CPU{eng: eng, priv: NewPrivMem()}
	c.handler = c.fire
	c.spinNoticeFn = c.spinNotice
	c.Reset(cfg)
	return c
}

// Reset returns the processor to the state New(eng, cfg) leaves it in,
// whatever it was doing: pc 0, registers and private memory zero,
// nothing outstanding, awaited or parked, counters zero, no collector.
// Any field of cfg may differ from the last run's; a cache new to the
// processor gets its retirement listener.
func (c *CPU) Reset(cfg Config) {
	if cfg.LoadDelay < 1 || cfg.BranchDelay < 1 {
		panic("cpu: delays must be >= 1")
	}
	c.id = cfg.ID
	c.spec = cfg.Spec
	c.prog = cfg.Prog
	c.mem = cfg.Mem
	c.onHalt = cfg.OnHalt
	if c.cache != cfg.Cache {
		c.cache = cfg.Cache
		c.cache.OnRetireAny(func() { c.reconsider() })
	}
	c.loadDelay = sim.Cycle(cfg.LoadDelay)
	c.branchDelay = sim.Cycle(cfg.BranchDelay)
	c.maxOut = cfg.Spec.MaxOutstanding
	if c.maxOut == 0 {
		c.maxOut = cfg.MSHRs
	}
	c.spinFF = !cfg.NoSpinSkip
	c.core = core{SpinPC: -1}
	c.pendMask, c.readyMax = 0, 0
	c.awaiting = nil
	clear(c.priv.pages)
	c.mc = nil
}

// SetReg initializes a register before the run starts.
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.R0 {
		c.core.Regs[r] = v
	}
}

// Reg returns a register's current value (test/inspection use).
func (c *CPU) Reg(r isa.Reg) uint64 { return c.core.Regs[r] }

// Priv exposes the private memory (for workload setup and tests).
func (c *CPU) Priv() *PrivMem { return c.priv }

// Stats returns a copy of the counters.
func (c *CPU) Stats() Stats { return c.core.Stats }

// SyncInstrs returns the program-level count of retired
// synchronization-classed instructions (see the field comment).
func (c *CPU) SyncInstrs() uint64 { return c.core.SyncInstrs }

// SetMetrics attaches a cycle-attribution collector (nil disables).
// Collection is purely observational: it never changes timing.
func (c *CPU) SetMetrics(mc *metrics.Collector) { c.mc = mc }

// Halted reports whether the program has finished.
func (c *CPU) Halted() bool { return c.core.Halted }

// PC returns the current program counter (diagnostics).
func (c *CPU) PC() int { return c.core.PC }

// OutstandingRefs returns the number of demand misses in flight
// (diagnostics; excludes prefetches).
func (c *CPU) OutstandingRefs() int { return c.core.Outstanding }

// ParkedReason describes what the processor is waiting on, or
// "running" when it is not parked (diagnostics).
func (c *CPU) ParkedReason() string {
	if c.core.Halted {
		return "halted"
	}
	if c.core.Spinning {
		return "spin"
	}
	if !c.core.Parked {
		if c.awaiting != nil && !c.awaiting.Done {
			return "awaiting"
		}
		return "running"
	}
	return c.core.ParkWhy.String()
}

// Start schedules the first execution event at cycle 0.
func (c *CPU) Start() { c.schedule(c.eng.Now()) }

// schedule arranges a run event at cycle at (idempotent).
func (c *CPU) schedule(at sim.Cycle) {
	if c.core.Scheduled || c.core.Halted {
		return
	}
	c.core.Scheduled = true
	c.eng.Schedule(at, c.handler, sim.EventDesc{Comp: sim.CompCPU, Kind: cpuEvRun, Unit: int32(c.id)})
}

// reconsider wakes a parked processor so it can re-evaluate its stall;
// it is invoked by MSHR retirements, value bindings, and release
// completions.
func (c *CPU) reconsider() {
	c.releaseTick()
	c.wbTick()
	if !c.core.Parked {
		return
	}
	c.core.Parked = false
	at := c.eng.Now()
	if c.core.ParkedAt > at {
		at = c.core.ParkedAt
	}
	dur := uint64(at - c.core.ParkedAt)
	c.accountStall(c.core.ParkWhy, dur)
	c.mc.Stall(c.id, c.core.ParkCause, c.core.ParkedAt, dur)
	c.core.ParkWhy = parkNone
	c.schedule(at)
}

// park suspends execution at local time t for the given reason.
func (c *CPU) park(why parkReason, t sim.Cycle) {
	c.core.Parked = true
	c.core.ParkWhy = why
	c.core.ParkCause = stallCauseOf(why)
	c.core.ParkedAt = t
}

// stallCauseOf maps a park reason onto the metrics stall taxonomy.
// MSHR-full is distinguished from a same-line conflict at the park
// site, which overrides the default mapping.
func stallCauseOf(why parkReason) metrics.StallCause {
	switch why {
	case parkRegs, parkBlocking:
		return metrics.CauseLoadMiss
	case parkOutstanding, parkRelease:
		return metrics.CauseStoreOwn
	case parkDrain, parkSync, parkHalt:
		return metrics.CauseSyncDrain
	case parkConflict:
		return metrics.CauseMSHRConflict
	}
	return metrics.CauseInterlock
}

func (c *CPU) accountStall(why parkReason, cycles uint64) {
	switch why {
	case parkRegs:
		c.core.Stats.StallLoadWait += cycles
	case parkOutstanding:
		c.core.Stats.StallOutstanding += cycles
	case parkConflict:
		c.core.Stats.StallConflict += cycles
	case parkDrain, parkHalt:
		c.core.Stats.StallDrain += cycles
	case parkSync:
		c.core.Stats.StallSync += cycles
	case parkBlocking:
		c.core.Stats.StallBlocking += cycles
	case parkRelease:
		c.core.Stats.StallRelease += cycles
	}
}

// setReg writes a register with its value becoming readable at ready.
func (c *CPU) setReg(r isa.Reg, v uint64, ready sim.Cycle) {
	if r == isa.R0 {
		return
	}
	c.core.Regs[r] = v
	c.core.RegReady[r] = ready
	c.core.RegPending[r] = false
	c.pendMask &^= 1 << r
	c.readyMax = max(c.readyMax, ready)
}

// markPending makes register r wait for a load miss to bind it through
// setReg. R0 is never pending: the value it would receive is discarded.
func (c *CPU) markPending(r isa.Reg) {
	if r == isa.R0 {
		return
	}
	c.core.RegPending[r] = true
	c.core.RegReady[r] = notReady
	c.pendMask |= 1 << r
}

// summary derives the interlock summary, least bound, from the registers.
func (c *CPU) summary() (mask uint32, readyMax sim.Cycle) {
	for r, pending := range c.core.RegPending {
		if pending {
			mask |= 1 << r
		} else {
			readyMax = max(readyMax, c.core.RegReady[r])
		}
	}
	return mask, readyMax
}

// CheckInterlocks compares the interlock summary with the register file
// it is derived from, for the machine's invariant checker.
func (c *CPU) CheckInterlocks() error {
	if mask, ready := c.summary(); mask != c.pendMask || ready > c.readyMax {
		return fmt.Errorf("registers pending %#x, the rest ready by cycle %d, but the interlock summary says %#x by %d",
			mask, ready, c.pendMask, c.readyMax)
	}
	return nil
}

// srcReady returns the cycle at which the instruction's source (and,
// for WAW, destination) registers are all available: notReady, the
// latest cycle there is, if any awaits an outstanding miss.
func (c *CPU) srcReady(in *isa.Inst) sim.Cycle {
	ready := sim.Cycle(0)
	if in.Op.ReadsRs1() {
		ready = c.core.RegReady[in.Rs1]
	}
	if in.Op.ReadsRs2() {
		ready = max(ready, c.core.RegReady[in.Rs2])
	}
	if in.Op.WritesRd() {
		ready = max(ready, c.core.RegReady[in.Rd]) // WAW/interlock with an in-flight load
	}
	return ready
}

// effectiveClass maps an instruction's abstract synchronization class
// to what this model's hardware sees.
func (c *CPU) effectiveClass(cl isa.Class) isa.Class {
	if !c.spec.SyncVisible {
		return isa.ClassPlain
	}
	if !c.spec.ReleaseNonBlocking {
		// Weak ordering: every synchronization op is a plain sync point.
		if cl == isa.ClassAcquire || cl == isa.ClassRelease {
			return isa.ClassSync
		}
	}
	return cl
}

// run is the processor's execution event.
func (c *CPU) run() {
	c.core.Scheduled = false
	if c.core.Halted || c.core.Parked {
		return
	}
	if c.core.Spinning {
		c.spinResume()
	}
	t := c.eng.Now()
	for steps := 0; ; steps++ {
		if steps > maxBatch {
			robust.Raise(&robust.SimError{Kind: robust.Program, Component: "cpu", Unit: c.id,
				Cycle: c.eng.Now(), Detail: fmt.Sprintf("runaway local loop at pc %d", c.core.PC)})
		}
		// An issued operation we must complete before advancing.
		if c.awaiting != nil {
			if !c.awaiting.Done {
				c.park(c.core.AwaitWhy, t)
				return
			}
			po := c.awaiting
			c.awaiting = nil
			if po.Retired {
				c.freeOp(po)
			}
			c.core.PC++
			t++
			if t > c.eng.Now() {
				c.schedule(t)
				return
			}
		}
		pc := c.core.PC
		if uint(pc) >= uint(len(c.prog)) {
			robust.Raise(&robust.SimError{Kind: robust.Program, Component: "cpu", Unit: c.id,
				Cycle: c.eng.Now(), Detail: fmt.Sprintf("pc %d out of program (%d instructions)", pc, len(c.prog))})
		}
		in := &c.prog[pc]

		// Register interlock, checked only while some register can fail it.
		if c.pendMask != 0 || c.readyMax > t {
			ready := c.srcReady(in)
			if ready == notReady {
				c.park(parkRegs, t)
				return
			}
			if ready > t {
				c.core.Stats.StallInterlock += uint64(ready - t)
				c.mc.Stall(c.id, metrics.CauseInterlock, t, uint64(ready-t))
				t = ready
			}
		}

		switch {
		case in.Op == isa.NOP:
			c.core.Stats.Instructions++
			c.core.PC++
			t++

		case in.Op == isa.HALT:
			if c.core.Outstanding > 0 || c.core.Release.Active || c.wbHaltWait() {
				if t > c.eng.Now() {
					c.schedule(t)
					return
				}
				c.park(parkHalt, t)
				return
			}
			c.core.Stats.Instructions++
			c.core.Halted = true
			c.core.Stats.HaltCycle = t
			if c.onHalt != nil {
				c.onHalt(c.id)
			}
			return

		case in.Op.IsALU():
			c.execALU(in, t)
			c.core.Stats.Instructions++
			c.core.PC++
			t++

		case in.Op.IsBranch():
			c.core.Stats.Instructions++
			c.core.PC = c.branchTarget(in)
			t += c.branchDelay

		case in.Op == isa.FENCE:
			if t > c.eng.Now() {
				c.schedule(t)
				return
			}
			if c.effectiveClass(in.Class) == isa.ClassPlain {
				// Invisible to SC hardware: a no-op.
				c.core.Stats.Instructions++
				c.core.SyncInstrs++
				c.core.PC++
				t++
				break
			}
			if c.core.Outstanding > 0 || c.core.Release.Active || c.wbDrainWait() {
				c.park(parkDrain, t)
				return
			}
			c.core.Stats.Instructions++
			c.core.Stats.SyncOps++
			c.core.SyncInstrs++
			c.core.PC++
			t++

		case in.Op.IsMem():
			addr := c.core.Regs[in.Rs1] + uint64(in.Imm)
			if addr%8 != 0 {
				robust.Raise(&robust.SimError{Kind: robust.Program, Component: "cpu", Unit: c.id,
					Cycle: c.eng.Now(), Line: addr, HasLine: true,
					Detail: fmt.Sprintf("unaligned access at pc %d", c.core.PC)})
			}
			if !isa.IsShared(addr) {
				c.execPrivate(in, addr, t)
				c.core.Stats.Instructions++
				if in.Class != isa.ClassPlain {
					c.core.SyncInstrs++
				}
				c.core.PC++
				t++
				break
			}
			// Shared accesses are global events: resynchronize — or, if
			// this is a detected spin loop whose value cannot change,
			// park until the line's state does (spin.go).
			if t > c.eng.Now() {
				if c.spinTry(in, addr, t) {
					return
				}
				c.schedule(t)
				return
			}
			status, extra := c.sharedAccess(in, addr, t)
			if status != accRetry && in.Class != isa.ClassPlain {
				c.core.SyncInstrs++
			}
			switch status {
			case accDone:
				c.core.Stats.Instructions++
				c.core.PC++
				t += 1 + extra
			case accRetry:
				return // parked before issue; will re-execute
			case accWait:
				c.core.Stats.Instructions++
				// parked after issue; awaiting completion advances pc
				return
			}

		default:
			panic(fmt.Sprintf("cpu %d: cannot execute %s", c.id, in))
		}
	}
}
