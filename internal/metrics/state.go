package metrics

import "slices"

// clone returns a copy of st that shares no mutable slice with it, so a
// snapshot and the live collector never write through to each other.
// (A recorded Sample's own slices are never modified again.)
func (st CollectorState) clone() CollectorState {
	st.Stalls = slices.Clone(st.Stalls)
	for i := range st.NetRetries {
		st.NetRetries[i] = slices.Clone(st.NetRetries[i])
	}
	st.Slices = slices.Clone(st.Slices)
	st.Samples = slices.Clone(st.Samples)
	return st
}

// Save captures all accumulated observations. Safe on a nil receiver
// (returns a zero state).
func (c *Collector) Save() CollectorState {
	if c == nil {
		return CollectorState{}
	}
	return c.st.clone()
}

// Load restores accumulated observations into this collector,
// replacing whatever it held. The sampler is left as is; a subsequent
// (or prior) SetSampler keeps the restored epoch phase.
func (c *Collector) Load(st CollectorState) {
	if c != nil {
		c.st = st.clone()
	}
}
