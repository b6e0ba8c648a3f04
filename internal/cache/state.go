package cache

import (
	"fmt"
	"sort"

	"memsim/internal/memory"
	"memsim/internal/sim"
)

// Event kinds for cache-owned engine events (sim.EventDesc.Kind). Both
// carry the MSHR index in A; everything else the callback needs lives
// in the MSHR itself, which the snapshot serializes.
const (
	cacheEvBind uint8 = iota + 1
	cacheEvFill
)

func (c *Cache) evdesc(kind uint8, mshrIdx int) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompCache, Kind: kind, Unit: int32(c.id), A: uint64(mshrIdx)}
}

// RestoreEvent rebuilds the callback for a saved cache event.
func (c *Cache) RestoreEvent(d sim.EventDesc) (func(), error) {
	idx := int(d.A)
	if idx < 0 || idx >= len(c.mshr) {
		return nil, fmt.Errorf("cache: event for MSHR %d of %d", idx, len(c.mshr))
	}
	m := &c.mshr[idx]
	if !m.valid {
		return nil, fmt.Errorf("cache: event for invalid MSHR %d", idx)
	}
	switch d.Kind {
	case cacheEvBind:
		if m.on == nil {
			return nil, fmt.Errorf("cache: bind event for MSHR %d with no binder", idx)
		}
		return m.bindFn, nil
	case cacheEvFill:
		return m.fillFn, nil
	}
	return nil, fmt.Errorf("cache: unknown event kind %d", d.Kind)
}

// DrainFunc returns the cache's output-drain retry callback. The
// machine re-registers it when restoring a saved network space wait.
func (c *Cache) DrainFunc() func() { return c.drainFn }

// BinderBlob is an opaque serialized Binder. The cache never interprets
// it: the binder's owner (the processor) packs and unpacks it.
type BinderBlob struct {
	W [6]uint64
}

// SavableBinder is a Binder whose state can be captured in a snapshot.
// Every binder handed to the cache on a path that may be snapshotted
// must implement it; Save fails otherwise.
type SavableBinder interface {
	Binder
	SaveBinder() BinderBlob
}

// LineState is one cache way in a snapshot. Invalid ways are saved
// verbatim: victim selection scans ways in order, so their contents
// participate in replacement decisions.
type LineState struct {
	Tag   uint64
	St    uint8
	Dirty bool
	LRU   uint64
}

// MSHRState is one miss register in a snapshot.
type MSHRState struct {
	Valid     bool
	Line      uint64
	Excl      bool
	Early     bool
	Prefetch  bool
	IssuedAt  sim.Cycle
	FillExcl  bool
	LateBind  bool
	HasBinder bool
	Binder    BinderBlob
}

// OutPktState is one output-queue entry awaiting network space.
type OutPktState struct {
	Msg    memory.Msg
	Bypass bool
}

// CacheState is the complete serializable state of a Cache. The
// invalidated set is sorted so snapshot bytes are deterministic.
type CacheState struct {
	Sets        [][]LineState
	MSHRs       []MSHRState
	Outq        []OutPktState
	Invalidated []uint64
	LRUClock    uint64
	Stats       Stats
}

// Save captures the cache's tag arrays, MSHRs and queues. It fails if
// a pending MSHR carries a binder that is not savable: that binder
// holds state the snapshot cannot carry.
func (c *Cache) Save() (CacheState, error) {
	st := CacheState{
		Sets:     make([][]LineState, c.numSets),
		MSHRs:    make([]MSHRState, len(c.mshr)),
		LRUClock: c.lruClock,
		Stats:    c.stats,
	}
	for i := range st.Sets {
		set := c.set(i)
		ws := make([]LineState, len(set))
		for w := range set {
			ws[w] = LineState{Tag: set[w].tag, St: uint8(set[w].state), Dirty: set[w].dirty, LRU: set[w].lru}
		}
		st.Sets[i] = ws
	}
	for i := range c.mshr {
		m := &c.mshr[i]
		ms := MSHRState{
			Valid: m.valid, Line: m.line, Excl: m.excl, Early: m.early,
			Prefetch: m.prefetch, IssuedAt: m.issuedAt,
			FillExcl: m.fillExcl, LateBind: m.lateBind,
		}
		if m.valid && m.on != nil {
			sb, ok := m.on.(SavableBinder)
			if !ok {
				return CacheState{}, fmt.Errorf("cache %d: MSHR %d binder %T is not savable", c.id, i, m.on)
			}
			ms.HasBinder = true
			ms.Binder = sb.SaveBinder()
		}
		st.MSHRs[i] = ms
	}
	for i := c.outHead; i < len(c.outq); i++ {
		st.Outq = append(st.Outq, OutPktState{Msg: c.outq[i].msg, Bypass: c.outq[i].bypass})
	}
	for line := range c.invalidated {
		st.Invalidated = append(st.Invalidated, line)
	}
	sort.Slice(st.Invalidated, func(i, j int) bool { return st.Invalidated[i] < st.Invalidated[j] })
	return st, nil
}

// Load restores a freshly constructed cache from a snapshot. restore
// rebuilds each saved binder (the machine routes it to the owning
// processor).
func (c *Cache) Load(st CacheState, restore func(BinderBlob) (Binder, error)) error {
	if c.lruClock != 0 || c.Outstanding() != 0 {
		return fmt.Errorf("cache: Load on a used cache %d", c.id)
	}
	if len(st.Sets) != c.numSets || len(st.MSHRs) != len(c.mshr) {
		return fmt.Errorf("cache: snapshot geometry (%d sets, %d MSHRs) does not match (%d sets, %d MSHRs)",
			len(st.Sets), len(st.MSHRs), c.numSets, len(c.mshr))
	}
	for i, ws := range st.Sets {
		if len(ws) != c.assoc {
			return fmt.Errorf("cache: snapshot set %d has %d ways, want %d", i, len(ws), c.assoc)
		}
		set := c.set(i)
		for w := range ws {
			set[w] = line{tag: ws[w].Tag, state: State(ws[w].St), dirty: ws[w].Dirty, lru: ws[w].LRU}
		}
	}
	for i, ms := range st.MSHRs {
		m := &c.mshr[i]
		m.valid = ms.Valid
		m.line = ms.Line
		m.excl, m.early, m.prefetch = ms.Excl, ms.Early, ms.Prefetch
		m.issuedAt = ms.IssuedAt
		m.fillExcl, m.lateBind = ms.FillExcl, ms.LateBind
		if ms.HasBinder {
			on, err := restore(ms.Binder)
			if err != nil {
				return fmt.Errorf("cache %d: MSHR %d: %w", c.id, i, err)
			}
			m.on = on
		}
	}
	for _, o := range st.Outq {
		c.outq = append(c.outq, outPkt{o.Msg, o.Bypass})
	}
	for _, l := range st.Invalidated {
		c.invalidated[l] = true
	}
	c.lruClock = st.LRUClock
	c.stats = st.Stats
	return nil
}
