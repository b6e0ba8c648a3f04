// Package machine assembles the complete simulated multiprocessor of
// the paper's §3.1: N processors with private caches, two Omega
// networks (requests and responses), and N interleaved global memory
// modules with a full-map directory.
//
// A Machine owns the authoritative flat image of shared memory.
// Caches and modules are timing/state models; processors bind values
// against this image at the cycles their accesses perform (see package
// cpu).
package machine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"memsim/internal/cache"
	"memsim/internal/consistency"
	"memsim/internal/cpu"
	"memsim/internal/isa"
	"memsim/internal/memory"
	"memsim/internal/metrics"
	"memsim/internal/network"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Config describes one simulated system.
type Config struct {
	Procs       int // processors = memory modules (dance-hall)
	Model       consistency.Model
	CacheSize   int // bytes, per processor (paper: 16K, 64K)
	LineSize    int // bytes (paper: 8, 16, 64)
	Assoc       int // ways; 0 means the paper's 2
	MSHRs       int // 0 means the paper's 5
	NetBuf      int // network interface buffer entries; 0 means 4
	LoadDelay   int // cycles; 0 means the paper's 4
	BranchDelay int // cycles; 0 means LoadDelay
	SharedWords int // flat shared-memory image size in 8-byte words

	// Robustness and debugging knobs (package robust). All are off by
	// default and none perturbs simulated timing when enabled; fault
	// injection perturbs timing only, never results.
	StallCycles int           // watchdog: fail if no instruction retires for this many cycles; 0 disables
	CheckEvery  int           // coherence invariant check interval in cycles; 0 disables
	Faults      robust.Faults // deterministic network fault injection; zero value disables

	// Mutate seeds a deliberate spec defect for the litmus harness's
	// self-check (see consistency.Mutation). Excluded from Result
	// checksums: a mutated run is never a golden run.
	Mutate consistency.Mutation `json:"-"`

	// NoSpinSkip disables spin fast-forward (cpu/spin.go), forcing
	// every spin-wait iteration to execute live. Results are
	// bit-identical either way — this knob exists for A/B verification
	// of that claim and for wall-clock benchmarking, so it is excluded
	// from Result checksums like Mutate.
	NoSpinSkip bool `json:"-"`
}

// withDefaults fills in the paper's default parameters.
func (c Config) withDefaults() Config {
	if c.Assoc == 0 {
		c.Assoc = 2
	}
	if c.MSHRs == 0 {
		c.MSHRs = 5
	}
	if c.NetBuf == 0 {
		c.NetBuf = 4
	}
	if c.LoadDelay == 0 {
		c.LoadDelay = 4
	}
	if c.BranchDelay == 0 {
		c.BranchDelay = c.LoadDelay
	}
	if c.SharedWords == 0 {
		c.SharedWords = 1 << 20
	}
	return c
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate reports why no machine can be built for c. It runs after
// withDefaults, so zero-valued knobs have already been replaced; what
// it rejects are values a caller set explicitly.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Procs < 2 {
		return fmt.Errorf("machine: need >= 2 processors, got %d", c.Procs)
	}
	if !powerOfTwo(c.Procs) {
		return fmt.Errorf("machine: processor count %d not a power of two", c.Procs)
	}
	if c.Procs > memory.MaxCaches {
		return fmt.Errorf("machine: processor count %d exceeds the directory's %d-cache sharer map",
			c.Procs, memory.MaxCaches)
	}
	switch c.LineSize {
	case 8, 16, 32, 64, 128:
	default:
		return fmt.Errorf("machine: unsupported line size %d", c.LineSize)
	}
	if !powerOfTwo(c.CacheSize) {
		return fmt.Errorf("machine: cache size %d not a power of two", c.CacheSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("machine: associativity %d must be >= 1", c.Assoc)
	}
	if c.CacheSize%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("machine: cache size %d not divisible by %d-way sets of %dB lines",
			c.CacheSize, c.Assoc, c.LineSize)
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("machine: MSHR count %d must be >= 1", c.MSHRs)
	}
	if c.NetBuf < 1 {
		return fmt.Errorf("machine: network buffer size %d must be >= 1", c.NetBuf)
	}
	if c.LoadDelay < 1 || c.BranchDelay < 1 {
		return fmt.Errorf("machine: load delay %d and branch delay %d must be >= 1",
			c.LoadDelay, c.BranchDelay)
	}
	if c.SharedWords < 1 {
		return fmt.Errorf("machine: shared image size %d words must be >= 1", c.SharedWords)
	}
	if c.StallCycles < 0 {
		return fmt.Errorf("machine: negative watchdog window %d", c.StallCycles)
	}
	if c.CheckEvery < 0 {
		return fmt.Errorf("machine: negative invariant check interval %d", c.CheckEvery)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// StackTop is the initial private stack pointer (grows down).
const StackTop = isa.PrivBase + (1 << 22)

// Result carries everything measured in one run.
type Result struct {
	Config  Config
	Cycles  sim.Cycle // cycle at which the last processor halted
	CPUs    []cpu.Stats
	Caches  []cache.Stats
	Modules []memory.Stats
	ReqNet  network.Stats
	RespNet network.Stats

	// Events is the engine events executed: what the run cost the host,
	// so Checksum leaves it out (it must stay the last field, see Encode).
	Events uint64
}

// Machine is one assembled system plus its shared-memory image.
type Machine struct {
	Eng  sim.Engine
	cfg  Config
	spec consistency.Spec

	shared  []uint64
	cpus    []*cpu.CPU
	caches  []*cache.Cache
	modules []*memory.Module
	reqNet  *network.Network
	respNet *network.Network

	halted int
	haltFn func(id int) // every processor's OnHalt, built once
	mc     *metrics.Collector

	words   int         // line size in 8-byte words (data-tail latency)
	handler sim.Handler // m.fire, built once: the machine's own events

	faults   *robust.Injector // &injector under fault injection, else nil
	injector robust.Injector
	watchdog *robust.Watchdog // nil unless armed (Config.StallCycles)

	started bool // watchdog/checker armed and processors started

	// progs is the machine's own list of the programs it was given, nil
	// slots filled in. The programs are immutable while it runs them:
	// the processors execute these very slices, and programHash
	// fingerprints them only when a snapshot first needs it.
	progs    [][]isa.Inst
	progHash *[32]byte // nil until the first Snapshot or Restore
}

// New builds a machine running the given per-processor programs.
// len(progs) must equal cfg.Procs; a nil program slot reuses progs[0]
// (the common SPMD case). It is Reset on a zero Machine.
func New(cfg Config, progs [][]isa.Inst) (*Machine, error) {
	m := new(Machine)
	if err := m.Reset(cfg, progs); err != nil {
		return nil, err
	}
	return m, nil
}

// idle holds released machines, a free list per processor count (a
// Reset to another count builds the wiring anew), told apart by
// bits.Len. As from a sync.Pool, the GC takes machines that wait
// through two collections, so idle ones do not tax every later mark;
// unlike one, it has no per-P slots, which a goroutine that changed P
// cannot see: between collections, Acquire after Release always reuses.
var idle struct {
	sync.Mutex
	free, old [bits.UintSize + 1][]*Machine
}

// gcTick's finalizer runs after each collection and re-arms itself.
type gcTick struct{ _ *byte }

func init() { runtime.SetFinalizer(new(gcTick), tick) }

func tick(t *gcTick) { ageIdle(); runtime.SetFinalizer(t, tick) }

// ageIdle drops the machines that waited through the last collection
// and marks those waiting now as old.
func ageIdle() {
	idle.Lock()
	idle.old, idle.free = idle.free, [bits.UintSize + 1][]*Machine{}
	idle.Unlock()
}

// Acquire is New on a released machine of cfg's processor count when
// one is waiting: a run then costs its simulation, not a construction.
func Acquire(cfg Config, progs [][]isa.Inst) (*Machine, error) {
	var m *Machine
	k := bits.Len(uint(cfg.Procs))
	idle.Lock()
	f := &idle.free[k]
	if len(*f) == 0 {
		f = &idle.old[k]
	}
	if n := len(*f) - 1; n >= 0 {
		m, (*f)[n], *f = (*f)[n], nil, (*f)[:n]
	}
	idle.Unlock()
	if m == nil {
		return New(cfg, progs)
	}
	if err := m.Reset(cfg, progs); err != nil {
		return nil, err
	}
	return m, nil
}

// Release hands the machine back for a later Acquire, whose Reset undoes
// whatever it was doing; neither it nor its shared image may be touched
// again. At most GOMAXPROCS machines of a count wait, as many as can run
// at once. A machine a foreign panic left in an unknown state is dropped.
func (m *Machine) Release() {
	k := bits.Len(uint(m.cfg.Procs))
	idle.Lock()
	if len(idle.free[k])+len(idle.old[k]) < runtime.GOMAXPROCS(0) {
		idle.free[k] = append(idle.free[k], m)
	}
	idle.Unlock()
}

// Reset returns the machine to exactly the state New(cfg, progs) would
// produce, whatever it was doing: finished, paused with events pending,
// failed. With the processor count it was built for, what a run sized
// stays at its high-water mark (the engine's node pool, the shared
// image, cache and MSHR slabs, directory tables, queue rings, network
// ports, pooled records, prebuilt callbacks) and only what cfg decides
// is derived again; another count builds anew. The collector is
// detached, watchdog and checker disarmed, as on a new machine. A
// refused Reset leaves the machine as it was.
func (m *Machine) Reset(cfg Config, progs [][]isa.Inst) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	if len(progs) != cfg.Procs {
		return fmt.Errorf("machine: %d programs for %d processors", len(progs), cfg.Procs)
	}
	if progs[0] == nil {
		return fmt.Errorf("machine: program 0 must be non-nil")
	}
	for i, p := range progs {
		if err := isa.ValidateProgram(p); err != nil {
			return fmt.Errorf("machine: program %d: %w", i, err)
		}
	}

	m.cfg = cfg
	m.spec = cfg.Mutate.Apply(consistency.SpecFor(cfg.Model))
	m.words = cfg.LineSize / 8
	m.progs = m.progs[:0]
	for _, p := range progs {
		if p == nil {
			p = progs[0]
		}
		m.progs = append(m.progs, p)
	}
	m.progHash = nil
	if cfg.SharedWords <= cap(m.shared) {
		m.shared = m.shared[:cfg.SharedWords]
		clear(m.shared)
	} else {
		m.shared = make([]uint64, cfg.SharedWords)
	}
	m.faults = nil
	if cfg.Faults.Enabled() {
		m.injector.Reset(cfg.Faults)
		m.faults = &m.injector
	}
	m.halted, m.started = 0, false
	m.mc = nil
	m.watchdog = nil

	m.Eng.Reset()
	if len(m.cpus) != cfg.Procs {
		m.build()
	} else {
		m.reqNet.Reset(cfg.NetBuf)
		m.respNet.Reset(cfg.NetBuf)
		for i := range m.cpus {
			m.modules[i].Reset(cfg.LineSize, cfg.Procs)
			m.caches[i].Reset(m.cacheConfig())
			m.cpus[i].Reset(m.cpuConfig(i))
		}
	}
	m.reqNet.SetFaults(m.faults)
	m.respNet.SetFaults(m.faults)
	for i, c := range m.cpus {
		c.SetReg(isa.RID, uint64(i))
		c.SetReg(isa.RNP, uint64(cfg.Procs))
		c.SetReg(isa.RSP, StackTop)
	}
	return nil
}

func (m *Machine) cacheConfig() cache.Config {
	return cache.Config{Size: m.cfg.CacheSize, LineSize: m.cfg.LineSize, Assoc: m.cfg.Assoc, MSHRs: m.cfg.MSHRs}
}

func (m *Machine) cpuConfig(i int) cpu.Config {
	return cpu.Config{
		ID:          i,
		Spec:        m.spec,
		Prog:        m.progs[i],
		Cache:       m.caches[i],
		Mem:         m,
		SharedWords: m.cfg.SharedWords,
		LoadDelay:   m.cfg.LoadDelay,
		BranchDelay: m.cfg.BranchDelay,
		MSHRs:       m.cfg.MSHRs,
		NoSpinSkip:  m.cfg.NoSpinSkip,
		OnHalt:      m.haltFn,
	}
}

// build wires the machine for m.cfg.Procs processors. A component's
// constructor is its wiring followed by its Reset, so built here or
// reset later it went through the same code. The wiring outlives a run:
// its closures read the configuration from m, not from a captured one.
func (m *Machine) build() {
	procs := m.cfg.Procs
	m.handler = m.fire
	m.haltFn = func(int) { m.halted++ }

	// Response network: memory -> caches. Data messages bind/install
	// inside the cache with its own head/tail scheduling.
	m.respNet = network.New(&m.Eng, procs, m.cfg.NetBuf, func(dst int, nm network.Message) {
		m.caches[dst].Receive(nm.Payload)
	})
	m.respNet.SetUnit(netUnitResp)
	// Request network: caches -> memory. Data-carrying messages reach
	// the module when their tail arrives.
	m.reqNet = network.New(&m.Eng, procs, m.cfg.NetBuf, func(dst int, nm network.Message) {
		if msg := nm.Payload; msg.Kind.CarriesData() {
			m.Eng.ScheduleAfter(sim.Cycle(m.words), m.handler, tailEvent(dst, nm.Src, msg))
		} else {
			m.modules[dst].Receive(nm.Src, msg)
		}
	})
	m.reqNet.SetUnit(netUnitReq)

	m.modules = make([]*memory.Module, procs)
	m.caches = make([]*cache.Cache, procs)
	m.cpus = make([]*cpu.CPU, procs)
	for i := 0; i < procs; i++ {
		id := i
		m.modules[i] = memory.NewModule(&m.Eng, id, m.cfg.LineSize,
			func(dst int, msg memory.Msg) bool {
				return m.respNet.TrySend(network.Message{
					Src: id, Dst: dst, Flits: msg.Flits(m.cfg.LineSize), Payload: msg,
				})
			},
			func(fn func()) { m.respNet.WhenSpace(id, fn) },
		)
		m.modules[i].Reset(m.cfg.LineSize, procs)
		m.caches[i] = cache.New(&m.Eng, id, m.cacheConfig(),
			func(msg memory.Msg, bypass bool) bool {
				dst := memory.ModuleFor(msg.Line, m.cfg.LineSize, m.cfg.Procs)
				return m.reqNet.TrySend(network.Message{
					Src: id, Dst: dst, Flits: msg.Flits(m.cfg.LineSize), Bypass: bypass, Payload: msg,
				})
			},
			func(fn func()) { m.reqNet.WhenSpace(id, fn) },
		)
		m.cpus[i] = cpu.New(&m.Eng, m.cpuConfig(i))
	}
}

// AttachMetrics wires a cycle-attribution collector into every
// component; call before Run. A nil collector is a no-op. Collection
// is strictly observational: it schedules no engine events and leaves
// every Result field bit-identical to an uninstrumented run.
func (m *Machine) AttachMetrics(mc *metrics.Collector) {
	if mc == nil {
		return
	}
	m.mc = mc
	mc.EnsureProcs(m.cfg.Procs)
	for i := 0; i < m.cfg.Procs; i++ {
		m.cpus[i].SetMetrics(mc)
		m.caches[i].SetMetrics(mc)
		m.modules[i].SetMetrics(mc)
	}
	m.reqNet.SetMetrics(mc, metrics.NetReq)
	m.respNet.SetMetrics(mc, metrics.NetResp)
	mc.SetSampler(func() metrics.Sample {
		s := metrics.Sample{
			ModuleBusy: make([]uint64, m.cfg.Procs),
			CacheMSHR:  make([]int, m.cfg.Procs),
		}
		for i := 0; i < m.cfg.Procs; i++ {
			s.ModuleBusy[i] = m.modules[i].Stats().BusyCycles
			s.CacheMSHR[i] = m.caches[i].Outstanding()
		}
		req, resp := m.reqNet.Stats(), m.respNet.Stats()
		s.NetFlits[metrics.NetReq] = req.Flits
		s.NetFlits[metrics.NetResp] = resp.Flits
		s.NetMsgs[metrics.NetReq] = req.Messages
		s.NetMsgs[metrics.NetResp] = resp.Messages
		return s
	})
}

// ReadWord implements cpu.MemImage over the flat shared image. The
// processor refuses an unaligned or out-of-image address at issue, so
// one here is a simulator bug.
func (m *Machine) ReadWord(addr uint64) uint64 { return m.shared[addr/8] }

// WriteWord implements cpu.MemImage.
func (m *Machine) WriteWord(addr uint64, v uint64) { m.shared[addr/8] = v }

// Shared returns the flat shared-memory image for workload setup and
// validation. Index is in words.
func (m *Machine) Shared() []uint64 { return m.shared }

// CPU returns processor i (tests and workload setup).
func (m *Machine) CPU(i int) *cpu.CPU { return m.cpus[i] }

// Config returns the effective (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Done reports whether every processor has halted.
func (m *Machine) Done() bool { return m.halted == m.cfg.Procs }

// Run executes the machine to completion. maxEvents bounds the run (0
// means a generous default).
//
// Every failure — a protocol slip deep inside a module or cache, a
// watchdog stall, an invariant violation, an exceeded event budget, or
// a quiesce deadlock — surfaces as a *robust.SimError with the
// machine's diagnostic dump attached (see Diagnostics), never as a
// panic escaping Run.
func (m *Machine) Run(maxEvents uint64) (Result, error) {
	return m.RunControlled(RunControl{MaxEvents: maxEvents})
}

// ErrPaused is returned by RunControlled when the run stopped at the
// requested Until cycle with processors still running. The machine is
// in a consistent between-events state, ready to Snapshot or resume
// with another RunControlled call.
var ErrPaused = errors.New("machine: run paused")

// RunControl parameterizes a controlled run.
type RunControl struct {
	// MaxEvents bounds the run in executed events (0: generous default).
	MaxEvents uint64
	// Ctx, when non-nil, is polled between events (about every 1024);
	// on cancellation the run stops with a Canceled SimError that
	// unwraps to the context error. A final checkpoint is taken first
	// if Checkpoint is set.
	Ctx context.Context
	// Until, when nonzero, pauses the run once the simulated clock
	// reaches it; RunControlled returns ErrPaused.
	Until sim.Cycle
	// CheckpointEvery, with Checkpoint, invokes the callback each time
	// the clock advances that many cycles (the machine is consistent
	// and snapshottable inside the callback). A checkpoint error stops
	// the run and is returned.
	CheckpointEvery sim.Cycle
	Checkpoint      func() error
}

// RunControlled executes the machine with cooperative pause,
// cancellation and periodic-checkpoint hooks. A restored machine
// continues exactly where its snapshot was taken.
func (m *Machine) RunControlled(rc RunControl) (Result, error) {
	if err := m.Drive(rc); err != nil {
		return Result{}, err
	}
	return m.result(), nil
}

// Drive is RunControlled without building the Result, for a caller
// that reads registers and memory (a litmus run).
func (m *Machine) Drive(rc RunControl) (err error) {
	if rc.MaxEvents == 0 {
		rc.MaxEvents = 5_000_000_000
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		se, ok := robust.Recovered(r)
		if !ok {
			panic(r) // a genuine simulator bug, not a simulated failure
		}
		if se.Dump == "" {
			se.Dump = m.Diagnostics(diagMsgs)
		}
		err = se
	}()
	if !m.started {
		m.started = true
		if m.cfg.StallCycles > 0 {
			m.armWatchdog()
			m.Eng.ScheduleAfter(m.watchdog.Window, m.handler, machEvent(machEvWatchdog))
		}
		if m.cfg.CheckEvery > 0 {
			m.Eng.ScheduleAfter(sim.Cycle(m.cfg.CheckEvery), m.handler, machEvent(machEvCheck))
		}
		for _, c := range m.cpus {
			c.Start()
		}
	}
	var ckptErr error
	var nextCkpt sim.Cycle
	if rc.CheckpointEvery > 0 && rc.Checkpoint != nil {
		nextCkpt = m.Eng.Now() + rc.CheckpointEvery
	}
	var polled uint64
	canceled := false
	done := func() bool {
		if m.Done() {
			return true
		}
		if rc.Until > 0 && m.Eng.Now() >= rc.Until {
			return true
		}
		if rc.Ctx != nil && m.Eng.Steps()-polled >= ctxPollEvents {
			polled = m.Eng.Steps()
			if rc.Ctx.Err() != nil {
				canceled = true
				return true
			}
		}
		if nextCkpt > 0 && m.Eng.Now() >= nextCkpt {
			nextCkpt = m.Eng.Now() + rc.CheckpointEvery
			if e := rc.Checkpoint(); e != nil {
				ckptErr = e
				return true
			}
		}
		return false
	}
	if !m.Eng.RunLimit(done, rc.MaxEvents) {
		return m.failure(robust.EventLimit, fmt.Sprintf("run exceeded %d events", rc.MaxEvents))
	}
	if canceled {
		if rc.Checkpoint != nil {
			if e := rc.Checkpoint(); e != nil {
				return fmt.Errorf("machine: final checkpoint after cancellation: %w", e)
			}
		}
		se := m.failure(robust.Canceled, fmt.Sprintf("run canceled: %v", rc.Ctx.Err()))
		se.Err = rc.Ctx.Err()
		return se
	}
	if ckptErr != nil {
		return fmt.Errorf("machine: checkpoint at cycle %d: %w", m.Eng.Now(), ckptErr)
	}
	if !m.Done() {
		if rc.Until > 0 && m.Eng.Now() >= rc.Until {
			return ErrPaused
		}
		return m.failure(robust.Deadlock, "engine quiesced")
	}
	return nil
}

// ctxPollEvents is how many engine events may execute between context
// cancellation checks: cheap enough to be free, frequent enough that a
// signal stops a run within microseconds of real time.
const ctxPollEvents = 1024

// armWatchdog builds the stall watchdog: if no processor retires an
// instruction for a full StallCycles window, the run fails with a
// Stall error carrying a diagnostic dump. Its tick is the machEvWatchdog
// event, so it survives snapshots; Restore arms the watchdog too, and
// then sets the saved baseline.
func (m *Machine) armWatchdog() {
	m.watchdog = &robust.Watchdog{
		Window:   sim.Cycle(m.cfg.StallCycles),
		Progress: m.totalInstructions,
		Done:     m.Done,
		OnStall: func(window sim.Cycle, progress uint64) {
			robust.Raise(&robust.SimError{
				Kind: robust.Stall, Component: "machine", Unit: -1, Cycle: m.Eng.Now(),
				Detail: fmt.Sprintf("no instruction retired for %d cycles (%d retired total, %d/%d processors halted)",
					window, progress, m.halted, m.cfg.Procs),
			})
		},
	}
	m.watchdog.Arm()
}

func (m *Machine) totalInstructions() uint64 {
	var n uint64
	for _, c := range m.cpus {
		// Spin-parked processors credit their skipped iterations to Stats
		// only at wake; count them now so a machine full of parked
		// spinners does not look wedged to the watchdog.
		n += c.Stats().Instructions + c.SpinVirtualInstrs()
	}
	return n
}

// SyncInstructions sums the program-level synchronization-instruction
// counts across processors. Unlike Result.SyncOps — which counts only
// operations the consistency model's hardware handled specially, and
// is therefore zero by design under SC — this reflects the workload's
// static instruction classes, so it stays nonzero whenever the program
// synchronizes at all.
func (m *Machine) SyncInstructions() uint64 {
	var n uint64
	for _, c := range m.cpus {
		n += c.SyncInstrs()
	}
	return n
}

// ResultNow returns the statistics accumulated so far, whether or not
// the machine has finished. It is meant for paused runs
// (RunControl.Until / ErrPaused): bounded property probes on very
// large configurations read the execution prefix's counters without
// paying for a complete run. Cycles is the latest halt cycle, zero
// while no processor has halted.
func (m *Machine) ResultNow() Result { return m.result() }

func (m *Machine) result() Result {
	r := Result{
		Config: m.cfg,
		CPUs:   make([]cpu.Stats, m.cfg.Procs),
		Caches: make([]cache.Stats, m.cfg.Procs),
		Modules: make([]memory.Stats,
			m.cfg.Procs),
		ReqNet:  m.reqNet.Stats(),
		RespNet: m.respNet.Stats(),
		Events:  m.Eng.Steps(),
	}
	for i := 0; i < m.cfg.Procs; i++ {
		r.CPUs[i] = m.cpus[i].Stats()
		r.Caches[i] = m.caches[i].Stats()
		r.Modules[i] = m.modules[i].Stats()
		if r.CPUs[i].HaltCycle > r.Cycles {
			r.Cycles = r.CPUs[i].HaltCycle
		}
	}
	return r
}
