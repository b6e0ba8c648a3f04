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
		if ln.state != Invalid {
			out = append(out, LineSnapshot{Addr: ln.tag, State: ln.state, Dirty: ln.dirty})
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
		if c.mshr[i].valid {
			out = append(out, MSHRSnapshot{Line: c.mshr[i].line, Excl: c.mshr[i].excl, Prefetch: c.mshr[i].prefetch})
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
		ln.state = st
		ln.dirty = dirty
		return
	}
	set := c.set(c.setIndex(lineAddr))
	way := 0
	for i := range set {
		if set[i].state == Invalid {
			way = i
			break
		}
	}
	c.lruClock++
	set[way] = line{tag: lineAddr, state: st, dirty: dirty, lru: c.lruClock}
}
