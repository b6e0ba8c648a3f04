package machine

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"

	"memsim/internal/cache"
	"memsim/internal/cpu"
	"memsim/internal/memory"
	"memsim/internal/metrics"
	"memsim/internal/network"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// Event kinds for machine-owned engine events (sim.EventDesc.Kind).
const (
	machEvTail     uint8 = iota + 1 // data-tail delivery to a module
	machEvWatchdog                  // stall-watchdog window tick
	machEvCheck                     // coherence invariant check tick
)

// Network units: EventDesc.Unit distinguishes the two Omega networks.
const (
	netUnitReq  int32 = 0
	netUnitResp int32 = 1
)

func machEvent(kind uint8) sim.EventDesc {
	return sim.EventDesc{Comp: sim.CompMachine, Kind: kind, Unit: -1}
}

// tailEvent delivers a data-carrying request to its module once the
// message tail has arrived. The message is tiny (kind + line), so the
// descriptor carries it whole: A = line, B = kind | src<<8 | dst<<32.
func tailEvent(dst, src int, msg memory.Msg) sim.EventDesc {
	d := machEvent(machEvTail)
	d.A = msg.Line
	d.B = uint64(msg.Kind) | uint64(src)<<8 | uint64(dst)<<32
	return d
}

// tail decodes a tail event.
func tail(d *sim.EventDesc) (dst, src int, msg memory.Msg) {
	return int(d.B >> 32), int(d.B >> 8 & 0xffffff), memory.Msg{Kind: memory.MsgKind(d.B & 0xff), Line: d.A}
}

// fire runs one of the machine's own due events. The two ticks
// schedule themselves again: the watchdog's while Check says so, the
// invariant checker's until every processor has halted.
func (m *Machine) fire(d *sim.EventDesc) {
	switch d.Kind {
	case machEvTail:
		dst, src, msg := tail(d)
		m.modules[dst].Receive(src, msg)
	case machEvWatchdog:
		m.raiseIfOnlyTicksRemain()
		if m.watchdog.Check() {
			m.Eng.ScheduleAfter(m.watchdog.Window, m.handler, *d)
		}
	case machEvCheck:
		if m.Done() {
			return
		}
		m.raiseIfOnlyTicksRemain()
		if err := m.CheckNow(); err != nil {
			robust.Raise(err)
		}
		m.Eng.ScheduleAfter(sim.Cycle(m.cfg.CheckEvery), m.handler, *d)
	default:
		panic(fmt.Sprintf("machine: event of unknown kind %d", d.Kind))
	}
}

// raiseIfOnlyTicksRemain runs in a tick. The armed ticks reschedule
// themselves while processors run, so the queue never drains; but when
// it holds nothing else nothing can happen any more (spin-parked
// processors wait for a delivery that is not coming, and their virtual
// progress keeps the watchdog quiet): the run is deadlocked. The tick
// that is running is not pending; the other one, if armed, is.
func (m *Machine) raiseIfOnlyTicksRemain() {
	if armed := min(m.cfg.StallCycles, 1) + min(m.cfg.CheckEvery, 1); !m.Done() && m.Eng.Len() < armed {
		robust.Raise(m.failure(robust.Deadlock, "nothing pending but the machine's own ticks"))
	}
}

// failure is the error of a run the machine itself gives up on: what
// happened, how many processors had halted, and the diagnostic dump.
func (m *Machine) failure(kind robust.Kind, what string) *robust.SimError {
	return &robust.SimError{
		Kind: kind, Component: "machine", Unit: -1, Cycle: m.Eng.Now(),
		Detail: fmt.Sprintf("%s (halted %d/%d processors)", what, m.halted, m.cfg.Procs),
		Dump:   m.Diagnostics(diagTraceEvents),
	}
}

// CheckEvent says whether fire can run a saved event of the machine's
// own and returns the handler that will.
func (m *Machine) CheckEvent(d sim.EventDesc) (sim.Handler, error) {
	switch d.Kind {
	case machEvTail:
		dst, src, msg := tail(&d)
		if src >= m.cfg.Procs || dst >= m.cfg.Procs {
			return nil, fmt.Errorf("machine: tail event src %d dst %d out of range", src, dst)
		}
		if k := msg.Kind; k != memory.WriteBack && k != memory.FlushInv && k != memory.FlushShare {
			return nil, fmt.Errorf("machine: tail event for a %v, which carries no data to a module", k)
		}
	case machEvWatchdog:
		if m.watchdog == nil {
			return nil, fmt.Errorf("machine: watchdog event with no watchdog configured")
		}
	case machEvCheck:
		if m.cfg.CheckEvery <= 0 {
			return nil, fmt.Errorf("machine: invariant-check event with no checker configured")
		}
	default:
		return nil, fmt.Errorf("machine: unknown machine event kind %d", d.Kind)
	}
	return m.handler, nil
}

// programHash fingerprints the per-processor programs so a snapshot
// can only be restored into a machine running the same code. Snapshot
// and Restore are its only readers, so it is computed on the first of
// those calls and kept; a machine that is built, run and discarded
// never pays for it.
func (m *Machine) programHash() [32]byte {
	if m.progHash == nil {
		h := sha256.New()
		if err := gob.NewEncoder(h).Encode(m.progs); err != nil {
			panic(fmt.Sprintf("machine: hashing programs: %v", err)) // gob on plain structs cannot fail
		}
		sum := [32]byte(h.Sum(nil))
		m.progHash = &sum
	}
	return *m.progHash
}

// resolveEvent finds the component that owns a saved engine event, has
// it check that it can run the event, and returns its handler.
func (m *Machine) resolveEvent(d sim.EventDesc) (sim.Handler, error) {
	if d.Comp >= sim.CompCPU && d.Comp <= sim.CompModule && (d.Unit < 0 || int(d.Unit) >= m.cfg.Procs) {
		return nil, fmt.Errorf("machine: event for unit %d of component class %d, of %d", d.Unit, d.Comp, m.cfg.Procs)
	}
	switch d.Comp {
	case sim.CompMachine:
		return m.CheckEvent(d)
	case sim.CompCPU:
		return m.cpus[d.Unit].CheckEvent(d)
	case sim.CompCache:
		return m.caches[d.Unit].CheckEvent(d)
	case sim.CompModule:
		return m.modules[d.Unit].CheckEvent(d, m.cfg.Procs)
	case sim.CompNet:
		switch d.Unit {
		case netUnitReq:
			return m.reqNet.CheckEvent(d, m.reqSpace)
		case netUnitResp:
			return m.respNet.CheckEvent(d, m.respSpace)
		}
		return nil, fmt.Errorf("machine: network event for unit %d", d.Unit)
	}
	return nil, fmt.Errorf("machine: event with unknown component class %d", d.Comp)
}

// reqSpace resolves a request-network space waiter: the only component
// that ever waits for request-network space at source src is cache
// src's output drain.
func (m *Machine) reqSpace(src int) func() { return m.caches[src].DrainFunc() }

// respSpace resolves a response-network space waiter: module src's
// output drain.
func (m *Machine) respSpace(src int) func() { return m.modules[src].DrainFunc() }

// Snapshot is the complete serializable state of a machine mid-run:
// restoring it into a freshly built machine with the same Config and
// programs continues the run with bit-identical results. Tracers and
// metrics samplers are re-attached by the restoring process; all
// accumulated metrics observations travel in the snapshot.
type Snapshot struct {
	Cfg      Config
	ProgHash [32]byte

	Shared  []uint64
	Halted  int
	Started bool

	Engine  sim.EngineState
	CPUs    []cpu.CPUState
	Caches  []cache.CacheState
	Modules []memory.ModuleState
	ReqNet  network.NetState
	RespNet network.NetState

	HasFaults    bool
	Faults       robust.InjectorState
	WatchdogLast uint64

	HasMetrics bool
	Metrics    metrics.CollectorState
}

// Snapshot captures the machine's complete state. The machine must be
// between events: either before Run, inside a RunControl checkpoint
// callback, or after RunControlled returned (ErrPaused or otherwise).
func (m *Machine) Snapshot() (*Snapshot, error) {
	eng, err := m.Eng.Save()
	if err != nil {
		return nil, fmt.Errorf("machine: saving engine: %w", err)
	}
	s := &Snapshot{
		Cfg:      m.cfg,
		ProgHash: m.programHash(),
		Shared:   append([]uint64(nil), m.shared...),
		Halted:   m.halted,
		Started:  m.started,
		Engine:   eng,
		CPUs:     make([]cpu.CPUState, m.cfg.Procs),
		Caches:   make([]cache.CacheState, m.cfg.Procs),
		Modules:  make([]memory.ModuleState, m.cfg.Procs),
	}
	for i := 0; i < m.cfg.Procs; i++ {
		if s.CPUs[i], err = m.cpus[i].Save(); err != nil {
			return nil, fmt.Errorf("machine: saving cpu %d: %w", i, err)
		}
		s.Caches[i] = m.caches[i].Save()
		s.Modules[i] = m.modules[i].Save()
	}
	s.ReqNet = m.reqNet.Save()
	s.RespNet = m.respNet.Save()
	if m.faults != nil {
		s.HasFaults = true
		s.Faults = m.faults.Save()
	}
	if m.watchdog != nil {
		s.WatchdogLast = m.watchdog.Last()
	}
	if m.mc != nil {
		s.HasMetrics = true
		s.Metrics = m.mc.Save()
	}
	return s, nil
}

// Restore loads a snapshot into this machine, which must be freshly
// built by New, or Reset, with the same configuration and programs
// (Restore verifies both) and not yet run. After Restore, RunControlled
// continues the interrupted run; the event execution order — and
// therefore every Result field — is bit-identical to the run the
// snapshot was taken from.
func (m *Machine) Restore(s *Snapshot) error {
	if m.started || m.Eng.Steps() != 0 || m.Eng.Pending() {
		return fmt.Errorf("machine: Restore on a machine that has already run")
	}
	if m.cfg != s.Cfg {
		return fmt.Errorf("machine: snapshot config %+v does not match machine config %+v", s.Cfg, m.cfg)
	}
	if m.programHash() != s.ProgHash {
		return fmt.Errorf("machine: snapshot was taken from different programs")
	}
	if len(s.Shared) != len(m.shared) {
		return fmt.Errorf("machine: snapshot shared image %d words, machine has %d", len(s.Shared), len(m.shared))
	}
	if len(s.CPUs) != m.cfg.Procs || len(s.Caches) != m.cfg.Procs || len(s.Modules) != m.cfg.Procs {
		return fmt.Errorf("machine: snapshot component counts (%d/%d/%d) do not match %d processors",
			len(s.CPUs), len(s.Caches), len(s.Modules), m.cfg.Procs)
	}
	copy(m.shared, s.Shared)
	m.halted = s.Halted

	// Each cache before its processor: the processor hands its in-flight
	// operations back to the loaded MSHRs and re-arms its line watch.
	for i := 0; i < m.cfg.Procs; i++ {
		if err := m.caches[i].Load(s.Caches[i]); err != nil {
			return fmt.Errorf("machine: restoring cache %d: %w", i, err)
		}
		if err := m.cpus[i].Load(s.CPUs[i]); err != nil {
			return fmt.Errorf("machine: restoring cpu %d: %w", i, err)
		}
		if err := m.modules[i].Load(s.Modules[i]); err != nil {
			return fmt.Errorf("machine: restoring module %d: %w", i, err)
		}
	}
	if err := m.reqNet.Load(s.ReqNet, m.reqSpace); err != nil {
		return fmt.Errorf("machine: restoring request network: %w", err)
	}
	if err := m.respNet.Load(s.RespNet, m.respSpace); err != nil {
		return fmt.Errorf("machine: restoring response network: %w", err)
	}

	if s.HasFaults != (m.faults != nil) {
		return fmt.Errorf("machine: snapshot fault injection (%v) does not match machine (%v)",
			s.HasFaults, m.faults != nil)
	}
	if m.faults != nil {
		m.faults.Load(s.Faults)
	}
	if s.HasMetrics && m.mc != nil {
		m.mc.Load(s.Metrics)
	}

	// The watchdog before the engine: a saved tick is checked against it.
	if s.Started && m.cfg.StallCycles > 0 {
		m.armWatchdog()
		m.watchdog.Restore(s.WatchdogLast)
	}
	m.started = s.Started

	if err := m.Eng.Load(s.Engine, m.resolveEvent); err != nil {
		return fmt.Errorf("machine: restoring engine: %w", err)
	}
	for _, n := range []*network.Network{m.reqNet, m.respNet} {
		if err := n.CheckWakes(s.Engine.Events); err != nil {
			return fmt.Errorf("machine: restoring engine: %w", err)
		}
	}
	return nil
}
