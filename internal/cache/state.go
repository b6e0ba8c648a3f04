package cache

import (
	"fmt"
	"slices"

	"memsim/internal/sim"
)

// Event kinds for cache-owned engine events (sim.EventDesc.Kind). Both
// carry the MSHR index in A; everything else the event needs lives in
// the MSHR itself, which the snapshot serializes.
const (
	cacheEvBind uint8 = iota + 1 // the first word arrived: bind the value
	cacheEvFill                  // the tail arrived: install and retire
)

func (c *Cache) event(kind uint8, mshrIdx int) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompCache, Kind: kind, Unit: int32(c.id), A: uint64(mshrIdx)}
}

// fire runs one of the cache's due events.
func (c *Cache) fire(d *sim.EventDesc) {
	m := &c.mshr[d.A]
	switch d.Kind {
	case cacheEvBind:
		m.on.Bind()
	case cacheEvFill:
		c.finishFill(m)
	default:
		panic(fmt.Sprintf("cache %d: event of unknown kind %d", c.id, d.Kind))
	}
}

// CheckEvent says whether fire can run a saved event and returns the
// handler that will. The cache's MSHRs and their binders must have been
// restored already.
func (c *Cache) CheckEvent(d sim.EventDesc) (sim.Handler, error) {
	if d.A >= uint64(len(c.mshr)) {
		return nil, fmt.Errorf("cache: event for MSHR %d of %d", d.A, len(c.mshr))
	}
	m := &c.mshr[d.A]
	if !m.Valid {
		return nil, fmt.Errorf("cache: event for invalid MSHR %d", d.A)
	}
	switch d.Kind {
	case cacheEvBind:
		if m.on == nil {
			return nil, fmt.Errorf("cache: bind event for MSHR %d with no binder", d.A)
		}
	case cacheEvFill:
	default:
		return nil, fmt.Errorf("cache: unknown event kind %d", d.Kind)
	}
	return c.handler, nil
}

// DrainFunc returns the cache's output-drain retry callback. The
// machine re-registers it when restoring a saved network space wait.
func (c *Cache) DrainFunc() func() { return c.drainFn }

// CacheState is the complete serializable state of a Cache: the lines
// slab, the data half of every MSHR and the unsent output packets as
// the cache itself holds them, plus the invalidated set, sorted so
// snapshot bytes are deterministic. The MSHR binders are not part of
// it — they belong to the processor, which saves them from Binders and
// hands them back through LinkBinder.
type CacheState struct {
	Lines       []line
	MSHR        []miss
	Outq        []outPkt
	Invalidated []uint64
	LRUClock    uint64
	Stats       Stats
}

// Save captures the cache's tag array, MSHRs and queues.
func (c *Cache) Save() CacheState {
	st := CacheState{
		Lines:       slices.Clone(c.lines),
		MSHR:        make([]miss, len(c.mshr)),
		Outq:        slices.Clone(c.outq[c.outHead:]),
		Invalidated: make([]uint64, 0, len(c.invalidated)),
		LRUClock:    c.lruClock,
		Stats:       c.stats,
	}
	for i := range c.mshr {
		st.MSHR[i] = c.mshr[i].miss
	}
	for line := range c.invalidated {
		st.Invalidated = append(st.Invalidated, line)
	}
	slices.Sort(st.Invalidated)
	return st
}

// Load restores a freshly constructed cache from a snapshot.
func (c *Cache) Load(st CacheState) error {
	if c.lruClock != 0 || c.Outstanding() != 0 {
		return fmt.Errorf("cache: Load on a used cache %d", c.id)
	}
	if len(st.Lines) != len(c.lines) || len(st.MSHR) != len(c.mshr) {
		return fmt.Errorf("cache: snapshot geometry (%d lines, %d MSHRs) does not match (%d lines, %d MSHRs)",
			len(st.Lines), len(st.MSHR), len(c.lines), len(c.mshr))
	}
	copy(c.lines, st.Lines)
	for i := range c.mshr {
		c.mshr[i].miss = st.MSHR[i]
	}
	c.outq = append(c.outq, st.Outq...)
	for _, l := range st.Invalidated {
		c.invalidated[l] = true
	}
	c.lruClock = st.LRUClock
	c.stats = st.Stats
	return nil
}

// Binders returns, per MSHR, the binder its miss calls back through:
// nil for a free register or a prefetch.
func (c *Cache) Binders() []Binder {
	out := make([]Binder, len(c.mshr))
	for i := range c.mshr {
		out[i] = c.mshr[i].on
	}
	return out
}

// LinkBinder hands a restored binder back to the loaded miss in MSHR i.
func (c *Cache) LinkBinder(i int, on Binder) error {
	if i < 0 || i >= len(c.mshr) {
		return fmt.Errorf("cache %d: binder for MSHR %d of %d", c.id, i, len(c.mshr))
	}
	m := &c.mshr[i]
	if !m.Valid || m.Prefetch || m.on != nil {
		return fmt.Errorf("cache %d: binder for MSHR %d, which holds no unbound demand miss", c.id, i)
	}
	m.on = on
	return nil
}
