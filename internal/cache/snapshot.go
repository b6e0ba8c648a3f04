package cache

// LineSnapshot describes one resident cache line for diagnostics and
// invariant checking.
type LineSnapshot struct {
	Addr  uint64 // line-aligned address
	State State
	Dirty bool
}

// Snapshot returns every valid line in the cache. Intended for
// post-run invariant checks and debugging; it is not part of the
// timing model.
func (c *Cache) Snapshot() []LineSnapshot {
	var out []LineSnapshot
	for _, ln := range c.lines {
		if ln.State != Invalid {
			out = append(out, LineSnapshot{Addr: ln.Tag, State: ln.State, Dirty: ln.Dirty})
		}
	}
	return out
}

// MSHRSnapshot describes one in-flight miss for diagnostic dumps.
type MSHRSnapshot struct {
	Line     uint64
	Excl     bool // ownership requested
	Prefetch bool
}

// SnapshotMSHRs returns the valid MSHRs. Read-only; safe at any cycle.
func (c *Cache) SnapshotMSHRs() []MSHRSnapshot {
	var out []MSHRSnapshot
	for i := range c.mshr {
		if c.mshr[i].Valid {
			out = append(out, MSHRSnapshot{Line: c.mshr[i].Line, Excl: c.mshr[i].Excl, Prefetch: c.mshr[i].Prefetch})
		}
	}
	return out
}

// ForceState is a TEST-ONLY corruption hook: it forcibly sets (or
// installs, evicting way 0 silently) a line in the given state,
// bypassing the coherence protocol entirely. It exists so tests can
// inject directory/cache inconsistencies and prove the invariant
// checker catches them; it must never be called on a simulation whose
// results matter.
func (c *Cache) ForceState(lineAddr uint64, st State, dirty bool) {
	if ln := c.lookup(lineAddr); ln != nil {
		ln.State = st
		ln.Dirty = dirty
		return
	}
	set := c.set(c.setIndex(lineAddr))
	way := 0
	for i := range set {
		if set[i].State == Invalid {
			way = i
			break
		}
	}
	c.lruClock++
	set[way] = line{Tag: lineAddr, State: st, Dirty: dirty, LRU: c.lruClock}
}
