// Package metrics is the simulator's cycle-attribution observability
// subsystem: a stall profiler that classifies every stalled processor
// cycle by cause, log2-bucketed latency histograms for shared
// references by class, an epoch sampler recording utilization
// time-series for caches, memory modules and both Omega networks, and
// exporters to JSON, CSV and the Chrome trace-event format (loadable
// in Perfetto).
//
// Collectors follow the trace.Recorder nil-receiver pattern: every
// hook is safe (and a no-op) on a nil *Collector, so components thread
// an optional collector without nil checks. A collector only observes
// — it never schedules engine events and never alters component
// behavior — so enabling one leaves simulated timing and every
// machine.Result field bit-identical (asserted by the machine
// package's timing-neutrality test).
package metrics

// StallCause classifies why a processor was not retiring
// instructions. The taxonomy follows the paper's §4 analysis: where do
// the cycles an idealized processor would have used actually go.
type StallCause uint8

// Stall causes. CauseLoadMiss covers blocking-load misses and waits
// for a register whose value is bound to an outstanding load.
// CauseStoreOwn covers accesses blocked behind outstanding references
// (the SC in-order issue rule, dominated by store/ownership waits) and
// RC back-to-back releases. CauseSyncDrain covers fence/sync-point
// drains and waits for a sync operation to complete. CauseMSHRConflict
// and CauseMSHRFull are lockup-free-cache structural stalls.
// CauseInterlock is the in-pipeline register interlock (load/branch
// delay slots that could not be filled).
const (
	CauseLoadMiss StallCause = iota
	CauseStoreOwn
	CauseSyncDrain
	CauseMSHRConflict
	CauseMSHRFull
	CauseInterlock
	NumCauses
)

func (c StallCause) String() string {
	switch c {
	case CauseLoadMiss:
		return "load-miss"
	case CauseStoreOwn:
		return "store-own"
	case CauseSyncDrain:
		return "sync-drain"
	case CauseMSHRConflict:
		return "mshr-conflict"
	case CauseMSHRFull:
		return "mshr-full"
	case CauseInterlock:
		return "interlock"
	}
	return "cause-?"
}

// RefClass classifies a shared-memory reference for latency
// histograms. Latency is measured issue to completion: for loads,
// until the value is usable; for stores and test-and-sets, until the
// operation performs; for sync-classed operations, until the processor
// may proceed.
type RefClass uint8

// Reference classes.
const (
	RefReadHit RefClass = iota
	RefReadMiss
	RefWriteHit
	RefWriteMiss
	RefSync
	NumClasses
)

func (r RefClass) String() string {
	switch r {
	case RefReadHit:
		return "read-hit"
	case RefReadMiss:
		return "read-miss"
	case RefWriteHit:
		return "write-hit"
	case RefWriteMiss:
		return "write-miss"
	case RefSync:
		return "sync"
	}
	return "class-?"
}

// Net identifies one of the machine's two Omega networks.
type Net uint8

// The two networks.
const (
	NetReq Net = iota
	NetResp
	numNets
)

func (n Net) String() string {
	if n == NetReq {
		return "req"
	}
	return "resp"
}

// Sample is one epoch snapshot of component activity. Counter fields
// are cumulative since the start of the run; the report layer converts
// consecutive samples into per-epoch rates. At is the epoch boundary
// the sample closes (set by the collector, not the sampler callback).
type Sample struct {
	At         uint64
	ModuleBusy []uint64 // cumulative busy cycles per memory module
	CacheMSHR  []int    // instantaneous MSHR occupancy per cache
	NetFlits   [numNets]uint64
	NetMsgs    [numNets]uint64
}

// Slice is one stall interval on a processor's timeline.
type Slice struct {
	CPU   int
	Cause StallCause
	Start uint64
	Dur   uint64
}

// Collector accumulates all observability data for one run. Create
// with New; a nil *Collector is safe to use everywhere (no-ops).
//
// The collector is sized lazily: machine.AttachMetrics grows the
// per-processor tables to the machine's processor count.
type Collector struct {
	st      CollectorState
	sampler func() Sample
}

// CollectorState is everything a Collector has accumulated, as plain
// data: the collector holds one and a snapshot carries a copy of it.
// The sampler callback is not part of it: machine.AttachMetrics
// re-installs one on restore, and SetSampler preserves a restored
// epoch phase.
type CollectorState struct {
	Epoch     uint64
	MaxSlices int

	Stalls     [][NumCauses]uint64
	Refs       [NumClasses]Hist
	Fill       Hist              // cache line-fill latency, request sent -> line installed
	ModWait    Hist              // memory-module input-queue wait
	NetWait    [numNets]Hist     // network queue delay per serviced message
	NetRetries [numNets][]uint64 // per-source entrance-buffer rejections

	Slices  []Slice
	Dropped uint64

	Next    uint64
	Samples []Sample
}

// Defaults. The epoch is in cycles; the slice cap bounds timeline
// memory on long runs (aggregate counters are unaffected by the cap).
const (
	DefaultEpoch     = 4096
	DefaultMaxSlices = 1 << 18
	minEpoch         = 64
)

// New creates an empty collector with default epoch and timeline cap.
func New() *Collector {
	return &Collector{st: CollectorState{Epoch: DefaultEpoch, MaxSlices: DefaultMaxSlices}}
}

// SetEpoch sets the utilization sampling interval in cycles (clamped
// to a sane minimum). Call before the run starts.
func (c *Collector) SetEpoch(cycles uint64) {
	if c == nil {
		return
	}
	if cycles < minEpoch {
		cycles = minEpoch
	}
	c.st.Epoch = cycles
}

// SetMaxSlices bounds the number of retained timeline slices; further
// stalls are still counted in the breakdown but dropped from the
// timeline (the report records how many).
func (c *Collector) SetMaxSlices(n int) {
	if c == nil || n < 0 {
		return
	}
	c.st.MaxSlices = n
}

// EnsureProcs grows the per-processor tables to hold at least procs
// entries. The machine calls this when a collector is attached.
func (c *Collector) EnsureProcs(procs int) {
	if c == nil || procs <= len(c.st.Stalls) {
		return
	}
	grown := make([][NumCauses]uint64, procs)
	copy(grown, c.st.Stalls)
	c.st.Stalls = grown
	for i := range c.st.NetRetries {
		g := make([]uint64, procs)
		copy(g, c.st.NetRetries[i])
		c.st.NetRetries[i] = g
	}
}

// SetSampler installs the epoch snapshot callback (the machine wires
// one reading its components' counters). Sampling is piggybacked on
// collector hooks — no engine events are scheduled — so a sample is
// taken at the first observation at or after each epoch boundary.
func (c *Collector) SetSampler(fn func() Sample) {
	if c == nil {
		return
	}
	c.sampler = fn
	if c.st.Next == 0 {
		c.st.Next = c.st.Epoch
	}
}

// tick advances the epoch sampler to the observation time now.
func (c *Collector) tick(now uint64) {
	if c.sampler == nil {
		return
	}
	for now >= c.st.Next {
		s := c.sampler()
		s.At = c.st.Next
		c.st.Samples = append(c.st.Samples, s)
		c.st.Next += c.st.Epoch
	}
}

// Stall records one stall interval on a processor: cause, start cycle
// and duration. Mirrors the processor's own stall accounting exactly,
// so cause totals sum to the run's total stalled cycles.
func (c *Collector) Stall(cpu int, cause StallCause, start, cycles uint64) {
	if c == nil {
		return
	}
	c.tick(start + cycles)
	if cycles == 0 || cpu >= len(c.st.Stalls) {
		return
	}
	c.st.Stalls[cpu][cause] += cycles
	if len(c.st.Slices) < c.st.MaxSlices {
		c.st.Slices = append(c.st.Slices, Slice{CPU: cpu, Cause: cause, Start: start, Dur: cycles})
	} else {
		c.st.Dropped++
	}
}

// Ref records one shared reference's issue-to-completion latency.
func (c *Collector) Ref(class RefClass, issue, done uint64) {
	if c == nil {
		return
	}
	c.tick(done)
	c.st.Refs[class].Add(done - issue)
}

// Fill records a cache line fill: request sent to line installed.
func (c *Collector) Fill(issue, done uint64) {
	if c == nil {
		return
	}
	c.tick(done)
	c.st.Fill.Add(done - issue)
}

// ModuleWait records how long a request sat in a memory module's
// input queue before service began (at is the service-start cycle).
func (c *Collector) ModuleWait(at, wait uint64) {
	if c == nil {
		return
	}
	c.tick(at)
	c.st.ModWait.Add(wait)
}

// NetWait records a message's queue delay when a network port begins
// servicing it (at is the service-start cycle).
func (c *Collector) NetWait(n Net, at, wait uint64) {
	if c == nil {
		return
	}
	c.tick(at)
	c.st.NetWait[n].Add(wait)
}

// NetRetry records an entrance-buffer rejection: back-pressure from
// the network reaching the source endpoint src.
func (c *Collector) NetRetry(n Net, src int, at uint64) {
	if c == nil {
		return
	}
	c.tick(at)
	if src < len(c.st.NetRetries[n]) {
		c.st.NetRetries[n][src]++
	}
}

// Slices returns the retained timeline (tests and exporters).
func (c *Collector) Slices() []Slice {
	if c == nil {
		return nil
	}
	return c.st.Slices
}

// Samples returns the recorded epoch samples (tests and exporters).
func (c *Collector) Samples() []Sample {
	if c == nil {
		return nil
	}
	return c.st.Samples
}
