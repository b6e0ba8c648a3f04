package cpu

import (
	"fmt"
	"math"

	"memsim/internal/cache"
	"memsim/internal/isa"
	"memsim/internal/metrics"
	"memsim/internal/sim"
)

// opData is the plain-data half of a pendingOp, carried verbatim by a
// snapshot.
type opData struct {
	Op      isa.Op
	Rd      isa.Reg
	Addr    uint64
	Value   uint64 // store value (ST)
	Seq     uint64 // miss sequence number (gates RC releases)
	Issue   sim.Cycle
	RefKind metrics.RefClass
	Sync    bool // sync-class: stores also set Done and wake the CPU
	Rel     bool // RC background release
	WBD     bool // write-buffer drain (TSO/PSO/PC)
	Done    bool // value bound; consulted when the CPU awaits this op
	Retired bool // Retire ran while the CPU still awaited the op
}

// pendingOp is one issued shared access in flight: the pooled record
// the cache calls back through (it implements cache.Binder). These
// records replace the old per-access OnBind/OnRetire closures; they
// recycle through a per-CPU free list, so the steady-state reference
// stream allocates nothing.
type pendingOp struct {
	opData
	c    *CPU
	next *pendingOp
}

// allocOp takes a record from the free list (growing only when empty).
func (c *CPU) allocOp() *pendingOp {
	p := c.opFree
	if p == nil {
		p = &pendingOp{c: c}
	} else {
		c.opFree = p.next
	}
	return p
}

// freeOp recycles a consumed record.
func (c *CPU) freeOp(p *pendingOp) {
	*p = pendingOp{c: p.c, next: c.opFree}
	c.opFree = p
}

// Bind performs the access's functional side when the value is
// available — loads read and deliver, stores and test-and-sets update
// the image — mirroring exactly what the old closures did per op and
// class.
func (p *pendingOp) Bind() {
	c := p.c
	if p.WBD {
		c.wbBindDrain(p)
		return
	}
	if p.Rel {
		c.mem.WriteWord(p.Addr, p.Value)
		return
	}
	switch p.Op {
	case isa.LD, isa.LDX:
		v := c.mem.ReadWord(p.Addr)
		c.setReg(p.Rd, v, c.eng.Now())
		c.mc.Ref(p.RefKind, p.Issue, c.eng.Now())
		p.Done = true
		c.reconsider()
	case isa.ST:
		c.mem.WriteWord(p.Addr, p.Value)
		c.mc.Ref(p.RefKind, p.Issue, c.eng.Now())
		if p.Sync {
			p.Done = true
			c.reconsider()
		}
	case isa.TAS:
		old := c.mem.ReadWord(p.Addr)
		c.mem.WriteWord(p.Addr, 1)
		c.setReg(p.Rd, old, c.eng.Now())
		c.mc.Ref(p.RefKind, p.Issue, c.eng.Now())
		p.Done = true
		c.reconsider()
	}
}

// Retire accounts the miss retirement and recycles the record — unless
// the CPU is still consulting it as its awaited completion, in which
// case the CPU frees it when it resumes.
func (p *pendingOp) Retire() {
	c := p.c
	if p.WBD {
		// Drains never count in c.core.Outstanding; cache.OnRetireAny fires
		// after this and runs reconsider → wbTick for follow-on issues.
		c.wbRetireDrain(p.Seq)
		c.freeOp(p)
		return
	}
	if p.Rel {
		c.completeRelease()
		c.freeOp(p)
		return
	}
	c.retireMiss(p.Seq)
	if c.awaiting == p {
		p.Retired = true
		return
	}
	c.freeOp(p)
}

// accStatus is the outcome of attempting a shared access.
type accStatus uint8

const (
	accDone  accStatus = iota // issued/performed; advance pc
	accRetry                  // parked before issue; re-execute later
	accWait                   // issued; completion will advance pc
)

// execALU performs a register-only instruction at local time t.
func (c *CPU) execALU(in *isa.Inst, t sim.Cycle) {
	a := c.core.Regs[in.Rs1]
	b := c.core.Regs[in.Rs2]
	var v uint64
	switch in.Op {
	case isa.ADD:
		v = a + b
	case isa.SUB:
		v = a - b
	case isa.MUL:
		v = uint64(int64(a) * int64(b))
	case isa.DIV:
		if b == 0 {
			v = 0
		} else {
			v = uint64(int64(a) / int64(b))
		}
	case isa.REM:
		if b == 0 {
			v = 0
		} else {
			v = uint64(int64(a) % int64(b))
		}
	case isa.AND:
		v = a & b
	case isa.OR:
		v = a | b
	case isa.XOR:
		v = a ^ b
	case isa.SLL:
		v = a << (b & 63)
	case isa.SRL:
		v = a >> (b & 63)
	case isa.SRA:
		v = uint64(int64(a) >> (b & 63))
	case isa.SLT:
		v = boolTo64(int64(a) < int64(b))
	case isa.SLTU:
		v = boolTo64(a < b)
	case isa.SEQ:
		v = boolTo64(a == b)
	case isa.ADDI:
		v = a + uint64(in.Imm)
	case isa.ANDI:
		v = a & uint64(in.Imm)
	case isa.ORI:
		v = a | uint64(in.Imm)
	case isa.XORI:
		v = a ^ uint64(in.Imm)
	case isa.SLLI:
		v = a << (uint64(in.Imm) & 63)
	case isa.SRLI:
		v = a >> (uint64(in.Imm) & 63)
	case isa.SRAI:
		v = uint64(int64(a) >> (uint64(in.Imm) & 63))
	case isa.SLTI:
		v = boolTo64(int64(a) < in.Imm)
	case isa.LI:
		v = uint64(in.Imm)
	case isa.MOV:
		v = a
	case isa.FADD:
		v = math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case isa.FSUB:
		v = math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
	case isa.FMUL:
		v = math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
	case isa.FDIV:
		v = math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
	case isa.FNEG:
		v = math.Float64bits(-math.Float64frombits(a))
	case isa.FABS:
		v = math.Float64bits(math.Abs(math.Float64frombits(a)))
	case isa.FSLT:
		v = boolTo64(math.Float64frombits(a) < math.Float64frombits(b))
	case isa.FSLE:
		v = boolTo64(math.Float64frombits(a) <= math.Float64frombits(b))
	case isa.ITOF:
		v = math.Float64bits(float64(int64(a)))
	case isa.FTOI:
		v = uint64(int64(math.Float64frombits(a)))
	default:
		panic(fmt.Sprintf("cpu: execALU on %s", in.Op))
	}
	c.setReg(in.Rd, v, t)
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// branchTaken evaluates a conditional branch's predicate.
func branchTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	}
	panic(fmt.Sprintf("cpu: branchTaken on %s", op))
}

// branchTarget evaluates a control-transfer instruction and returns
// the next pc.
func (c *CPU) branchTarget(in *isa.Inst) int {
	a := c.core.Regs[in.Rs1]
	switch in.Op {
	case isa.J:
		return int(in.Imm)
	case isa.JAL:
		c.setReg(in.Rd, uint64(c.core.PC+1), c.eng.Now())
		return int(in.Imm)
	case isa.JR:
		return int(a)
	}
	if branchTaken(in.Op, a, c.core.Regs[in.Rs2]) {
		return int(in.Imm)
	}
	return c.core.PC + 1
}

// execPrivate performs a private-memory access at local time t.
func (c *CPU) execPrivate(in *isa.Inst, addr uint64, t sim.Cycle) {
	switch in.Op {
	case isa.LD, isa.LDX:
		c.core.Stats.PrivReads++
		v := c.priv.Read(addr)
		c.setReg(in.Rd, v, t+c.loadDelay)
	case isa.ST:
		c.core.Stats.PrivWrites++
		c.priv.Write(addr, c.core.Regs[in.Rs2])
	case isa.TAS:
		panic(fmt.Sprintf("cpu %d: test-and-set on private address %#x", c.id, addr))
	}
}

// sharedAccess dispatches a shared-memory operation according to its
// effective synchronization class. t equals the engine's current
// cycle. The extra return value adds stall cycles after a completed
// access (e.g. a sync load hit holds the processor for the load
// delay).
func (c *CPU) sharedAccess(in *isa.Inst, addr uint64, t sim.Cycle) (accStatus, sim.Cycle) {
	// Per-location coherence across a pending release: a buffered
	// release performs in the background, possibly after program-later
	// accesses — fine for other addresses (that is the point of RC),
	// but an access to the release's own address must wait, or a later
	// store is overwritten by the earlier release (and a later load
	// reads stale data).
	if rel := &c.core.Release; rel.Active && rel.Addr == addr {
		c.park(parkRelease, t)
		return accRetry, 0
	}
	switch c.effectiveClass(in.Class) {
	case isa.ClassPlain:
		return c.plainAccess(in, addr, t)
	case isa.ClassSync:
		// Weak ordering: drain everything, then issue and wait.
		if c.core.Outstanding > 0 || c.core.Release.Active || c.wbDrainWait() {
			c.park(parkDrain, t)
			return accRetry, 0
		}
		return c.syncAccess(in, addr, t)
	case isa.ClassAcquire:
		// Release consistency: the acquire itself must complete, but
		// pending ordinary accesses are ignored.
		return c.syncAccess(in, addr, t)
	case isa.ClassRelease:
		return c.releaseAccess(in, addr, t)
	}
	panic("cpu: unknown effective class")
}

// cacheKind maps an opcode to its cache access kind and bypass flag.
func (c *CPU) cacheKind(op isa.Op) (cache.Kind, bool) {
	switch op {
	case isa.LD:
		return cache.Read, c.spec.LoadBypass
	case isa.LDX:
		return cache.ReadOwn, c.spec.LoadBypass
	case isa.ST:
		return cache.Write, false
	case isa.TAS:
		return cache.RMW, false
	}
	panic(fmt.Sprintf("cpu: cacheKind(%s)", op))
}

// plainAccess issues an ordinary shared access.
func (c *CPU) plainAccess(in *isa.Inst, addr uint64, t sim.Cycle) (accStatus, sim.Cycle) {
	if c.wbEnabled() {
		switch in.Op {
		case isa.ST:
			// Stores enter the write buffer and the processor moves on;
			// the buffer drains in the background (wbuf.go). A full
			// buffer stalls like an outstanding-limit stall.
			if c.wbFull() {
				c.park(parkOutstanding, t)
				return accRetry, 0
			}
			c.wbPush(addr, c.core.Regs[in.Rs2], t)
			c.wbTick()
			return accDone, 0
		case isa.LD, isa.LDX:
			// Store-to-load forwarding: the newest buffered store to
			// this address supplies the value without touching the
			// cache (read-own-write-early).
			if v, ok := c.wbForward(addr); ok {
				c.setReg(in.Rd, v, t+c.loadDelay)
				c.mc.Ref(metrics.RefReadHit, t, t+c.loadDelay)
				return accDone, 0
			}
		case isa.TAS:
			// An atomic read-modify-write acts on memory directly, so
			// it must not bypass buffered stores: drain first.
			if !c.wbEmpty() {
				c.park(parkDrain, t)
				return accRetry, 0
			}
		}
	}
	// Outstanding-reference limit. For the SC systems (limit 1) this
	// stalls *any* subsequent access, hit or miss, while a reference
	// is outstanding; SC2 additionally fires one non-binding prefetch
	// for the blocked access.
	if c.core.Outstanding >= c.maxOut {
		if c.spec.PrefetchOnStall && !c.core.PrefetchFired {
			kind, _ := c.cacheKind(in.Op)
			pk := cache.PrefetchRead
			if kind != cache.Read {
				pk = cache.PrefetchWrite
			}
			c.cache.Access(cache.Request{Kind: pk, Addr: addr})
			c.core.PrefetchFired = true
		}
		c.park(parkOutstanding, t)
		return accRetry, 0
	}

	kind, bypass := c.cacheKind(in.Op)
	po := c.allocOp()
	po.Op = in.Op
	po.Rd = in.Rd
	po.Addr = addr
	po.Seq = c.core.MissSeq + 1
	po.Issue = t
	switch in.Op {
	case isa.LD, isa.LDX:
		po.RefKind = metrics.RefReadMiss
	case isa.ST:
		po.Value = c.core.Regs[in.Rs2]
		po.RefKind = metrics.RefWriteMiss
	case isa.TAS:
		po.RefKind = metrics.RefWriteMiss
	}

	switch c.cache.Access(cache.Request{Kind: kind, Addr: addr, Bypass: bypass, On: po}) {
	case cache.Hit:
		c.freeOp(po)
		c.performHit(in, addr, t)
		c.recordHit(in, t)
		c.core.PrefetchFired = false
		return accDone, 0
	case cache.Miss:
		c.core.MissSeq = po.Seq
		c.core.Outstanding++
		c.core.PrefetchFired = false
		if in.Op.IsLoad() {
			c.markPending(in.Rd)
			if c.spec.BlockingLoads {
				c.awaiting = po
				c.core.AwaitWhy = parkBlocking
				c.park(parkBlocking, t)
				return accWait, 0
			}
		}
		return accDone, 0
	case cache.Conflict:
		c.freeOp(po)
		c.park(parkConflict, t)
		return accRetry, 0
	case cache.Full:
		c.freeOp(po)
		c.park(parkConflict, t)
		c.core.ParkCause = metrics.CauseMSHRFull
		return accRetry, 0
	}
	panic("cpu: unknown cache outcome")
}

// recordHit reports a shared-access hit's latency: loads and
// test-and-sets deliver their value after the load delay, stores
// perform in one cycle.
func (c *CPU) recordHit(in *isa.Inst, t sim.Cycle) {
	switch in.Op {
	case isa.LD, isa.LDX:
		c.mc.Ref(metrics.RefReadHit, t, t+c.loadDelay)
	case isa.ST:
		c.mc.Ref(metrics.RefWriteHit, t, t+1)
	case isa.TAS:
		c.mc.Ref(metrics.RefWriteHit, t, t+c.loadDelay)
	}
}

// performHit executes the functional side of a shared-access hit.
func (c *CPU) performHit(in *isa.Inst, addr uint64, t sim.Cycle) {
	switch in.Op {
	case isa.LD, isa.LDX:
		v := c.mem.ReadWord(addr)
		c.setReg(in.Rd, v, t+c.loadDelay)
	case isa.ST:
		c.mem.WriteWord(addr, c.core.Regs[in.Rs2])
	case isa.TAS:
		old := c.mem.ReadWord(addr)
		c.mem.WriteWord(addr, 1)
		c.setReg(in.Rd, old, t+c.loadDelay)
	}
}

// syncAccess issues a synchronization operation that the processor
// must wait on (WO sync points after draining; RC acquires).
func (c *CPU) syncAccess(in *isa.Inst, addr uint64, t sim.Cycle) (accStatus, sim.Cycle) {
	kind, _ := c.cacheKind(in.Op)
	po := c.allocOp()
	po.Op = in.Op
	po.Rd = in.Rd
	po.Addr = addr
	po.Seq = c.core.MissSeq + 1
	po.Issue = t
	po.RefKind = metrics.RefSync
	po.Sync = true
	if in.Op == isa.ST {
		po.Value = c.core.Regs[in.Rs2]
	}

	switch c.cache.Access(cache.Request{Kind: kind, Addr: addr, On: po}) {
	case cache.Hit:
		c.freeOp(po)
		c.performHit(in, addr, t)
		c.core.Stats.SyncOps++
		if in.Op.IsLoad() {
			// The processor holds until the value is delivered.
			c.mc.Ref(metrics.RefSync, t, t+c.loadDelay)
			return accDone, c.loadDelay
		}
		c.mc.Ref(metrics.RefSync, t, t+1)
		return accDone, 0
	case cache.Miss:
		c.core.MissSeq = po.Seq
		c.core.Outstanding++
		c.core.Stats.SyncOps++
		if in.Op.IsLoad() {
			c.markPending(in.Rd)
		}
		c.awaiting = po
		c.core.AwaitWhy = parkSync
		c.park(parkSync, t)
		return accWait, 0
	case cache.Conflict:
		c.freeOp(po)
		c.park(parkConflict, t)
		return accRetry, 0
	case cache.Full:
		c.freeOp(po)
		c.park(parkConflict, t)
		c.core.ParkCause = metrics.CauseMSHRFull
		return accRetry, 0
	}
	panic("cpu: unknown cache outcome")
}

// releaseAccess handles an RC release: the processor records it and
// moves on; the release issues in the background once the references
// outstanding at this moment have performed.
func (c *CPU) releaseAccess(in *isa.Inst, addr uint64, t sim.Cycle) (accStatus, sim.Cycle) {
	if in.Op != isa.ST {
		panic(fmt.Sprintf("cpu %d: release class on %s (only stores release)", c.id, in.Op))
	}
	if c.core.Release.Active {
		c.park(parkRelease, t)
		return accRetry, 0
	}
	c.core.Stats.SyncOps++
	c.core.Release = pendingRelease{
		Active:    true,
		Addr:      addr,
		Value:     c.core.Regs[in.Rs2],
		WaitCount: c.core.Outstanding,
		IssuedAt:  t,
	}
	c.core.ReleaseBarrier = c.core.MissSeq
	if c.core.Release.WaitCount == 0 {
		c.tryIssueRelease()
	}
	return accDone, 0
}

// retireMiss accounts a demand miss retirement.
func (c *CPU) retireMiss(seq uint64) {
	c.core.Outstanding--
	if c.core.Outstanding < 0 {
		panic("cpu: outstanding underflow")
	}
	if rel := &c.core.Release; rel.Active && !rel.Issued && seq <= c.core.ReleaseBarrier && rel.WaitCount > 0 {
		rel.WaitCount--
		if rel.WaitCount == 0 {
			c.tryIssueRelease()
		}
	}
	// cache.OnRetireAny fires after this and calls reconsider.
}

// releaseTick retries issuing a ready release (e.g. after an MSHR
// freed up).
func (c *CPU) releaseTick() {
	if rel := &c.core.Release; rel.Active && !rel.Issued && rel.WaitCount == 0 {
		c.tryIssueRelease()
	}
}

// tryIssueRelease sends the pending release to the cache.
func (c *CPU) tryIssueRelease() {
	rel := &c.core.Release
	if !rel.Active || rel.Issued {
		return
	}
	po := c.allocOp()
	po.Rel = true
	po.Addr = rel.Addr
	po.Value = rel.Value
	switch c.cache.Access(cache.Request{Kind: cache.Write, Addr: rel.Addr, On: po}) {
	case cache.Hit:
		c.freeOp(po)
		c.mem.WriteWord(rel.Addr, rel.Value)
		c.completeRelease()
	case cache.Miss:
		rel.Issued = true
	case cache.Conflict, cache.Full:
		// Retried by releaseTick on the next retirement.
		c.freeOp(po)
	}
}

// completeRelease finishes the background release.
func (c *CPU) completeRelease() {
	if rel := &c.core.Release; rel.Active {
		c.mc.Ref(metrics.RefSync, rel.IssuedAt, c.eng.Now())
	}
	c.core.Stats.Releases++
	c.core.Release = pendingRelease{}
}
