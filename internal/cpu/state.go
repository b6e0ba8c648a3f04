package cpu

import (
	"fmt"

	"memsim/internal/sim"
)

// cpuEvRun is the one kind of processor-owned engine event
// (sim.EventDesc.Kind): a run. All execution state lives in the CPU
// itself; CompCPU and the Unit give the event its place in the cycle.
const cpuEvRun uint8 = 1

// fire runs the processor's due event.
func (c *CPU) fire(d *sim.EventDesc) {
	if d.Kind != cpuEvRun {
		panic(fmt.Sprintf("cpu %d: event of unknown kind %d", c.id, d.Kind))
	}
	c.run()
}

// CheckEvent says whether fire can run a saved event and returns the
// handler that will. A processor knows whether it has a run pending,
// and one that is spin-parked has none until its line changes.
func (c *CPU) CheckEvent(d sim.EventDesc) (sim.Handler, error) {
	if d.Kind != cpuEvRun {
		return nil, fmt.Errorf("cpu: unknown event kind %d", d.Kind)
	}
	if !c.core.Scheduled || (c.core.Spinning && !c.core.SpinStale) {
		return nil, fmt.Errorf("cpu %d: run event for a processor that has none scheduled (spin-parked: %v)", c.id, c.core.Spinning)
	}
	return c.handler, nil
}

// savedOp is one in-flight operation in a snapshot. The processor saves
// its own operations, keyed by the cache MSHR that calls back through
// each, so restore re-links them by position.
type savedOp struct {
	MSHR    int  // -1: the miss already retired; only the awaiting processor holds the op
	Awaited bool // the processor waits on this op to advance
	Op      opData
}

// PrivPage is one allocated private-memory page.
type PrivPage struct {
	Page  uint64
	Words []uint64
}

// CPUState is the complete serializable state of a processor: the core
// verbatim, then the two things that are not plain data in the live
// processor — the pooled operation records, and private memory, whose
// pages are sorted by page number so snapshot bytes are deterministic.
type CPUState struct {
	Core     core
	Awaiting bool // some op in Ops is Awaited; Load verifies the link
	Ops      []savedOp
	Priv     []PrivPage
}

// Save captures the processor's architectural and microarchitectural
// state. It fails if one of its cache's misses calls back through
// anything but this processor's own operation records: such a binder
// holds state the snapshot cannot carry.
func (c *CPU) Save() (CPUState, error) {
	st := CPUState{Core: c.core, Awaiting: c.awaiting != nil, Priv: c.priv.save()}
	for i, b := range c.cache.Binders() {
		if b == nil {
			continue
		}
		p, ok := b.(*pendingOp)
		if !ok || p.c != c {
			return CPUState{}, fmt.Errorf("cpu %d: MSHR %d binder %T is not savable", c.id, i, b)
		}
		st.Ops = append(st.Ops, savedOp{MSHR: i, Awaited: p == c.awaiting, Op: p.opData})
	}
	if p := c.awaiting; p != nil && p.Retired {
		st.Ops = append(st.Ops, savedOp{MSHR: -1, Awaited: true, Op: p.opData})
	}
	return st, nil
}

// Load restores a freshly constructed processor from a snapshot. Its
// cache must have loaded already: each saved operation is handed back
// to the miss that was waiting on it, and a spin park re-arms its line
// watch.
func (c *CPU) Load(st CPUState) error {
	if c.core.PC != 0 || c.core.Scheduled || c.core.Stats.Instructions != 0 {
		return fmt.Errorf("cpu: Load on a used processor %d", c.id)
	}
	if h, n := st.Core.WBHead, st.Core.WBLen; h < 0 || h >= wbCap || n < 0 || n > wbCap {
		return fmt.Errorf("cpu %d: snapshot write buffer head %d, length %d (cap %d)", c.id, h, n, wbCap)
	}
	c.core = st.Core
	c.pendMask, c.readyMax = c.summary()
	c.priv.load(st.Priv)
	for _, so := range st.Ops {
		if (so.MSHR < 0) != so.Op.Retired || (so.Op.Retired && !so.Awaited) {
			return fmt.Errorf("cpu %d: restored op seq %d in MSHR %d is marked retired=%v awaited=%v",
				c.id, so.Op.Seq, so.MSHR, so.Op.Retired, so.Awaited)
		}
		p := c.allocOp()
		p.opData = so.Op
		if !so.Op.Retired {
			if err := c.cache.LinkBinder(so.MSHR, p); err != nil {
				return fmt.Errorf("cpu %d: restoring op seq %d: %w", c.id, so.Op.Seq, err)
			}
		}
		if so.Awaited {
			if c.awaiting != nil {
				return fmt.Errorf("cpu %d: two restored ops claim to be awaited (seq %d and %d)", c.id, c.awaiting.Seq, p.Seq)
			}
			c.awaiting = p
		}
	}
	if st.Awaiting != (c.awaiting != nil) {
		return fmt.Errorf("cpu %d: snapshot says awaiting=%v, but an awaited op among its %d ops: %v",
			c.id, st.Awaiting, len(st.Ops), c.awaiting != nil)
	}
	if c.core.Spinning {
		// Re-arm the line watch the live spin park had registered: it
		// protects the line from eviction until the resume, also when the
		// notice has come (SpinStale, the wake in the engine's saved queue).
		c.cache.WatchLine(c.SpinLine(), c.spinNoticeFn)
	}
	return nil
}
