package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"memsim/internal/asm"
	"memsim/internal/cache"
	"memsim/internal/compare"
	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/experiments"
	"memsim/internal/isa"
	"memsim/internal/litmus"
	"memsim/internal/machine"
	"memsim/internal/memory"
	"memsim/internal/network"
	"memsim/internal/sim"
)

// The probes time one layer each through its exported functions, on
// fixed inputs of fixed size: they depend on neither the workload nor
// the seed, so every traced run repeats them and their readings
// compare across runs, workloads and commits.

const probeBatches = 5

// size is a probe's iteration count: n, or a tenth of it in a smoke
// run.
func (o options) size(n int) int {
	if o.smoke {
		return n / 10
	}
	return n
}

// nsPerOp times batches of n operations and returns the median batch's
// nanoseconds per operation.
func nsPerOp(n int, batch func()) float64 {
	var ns []float64
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		batch()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// stopwatch accumulates the timed sections of a loop whose other
// sections are set-up.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.t0) }

// runProbes fills values with every probe metric.
func runProbes(o options, values map[string]float64) error {
	for _, probe := range []func(options, map[string]float64) error{
		probeEngine, probeCache, probeNetwork, probeMemory,
		probeCPU, probeMachine, probeSnapshot, probeCheckers, probeServer,
	} {
		if err := probe(o, values); err != nil {
			return err
		}
	}
	return nil
}

// probeEngine: schedule one event and execute one, over a ring that
// holds a few events at near-horizon delays.
func probeEngine(o options, values map[string]float64) error {
	var e sim.Engine
	delays := [8]sim.Cycle{1, 2, 3, 5, 8, 13, 21, 34}
	nop := func() {}
	for i := 0; i < 4; i++ {
		e.After(delays[i], nop)
	}
	n := o.size(400_000)
	i := 0
	values["sim.event_ns"] = nsPerOp(n, func() {
		for k := 0; k < n; k++ {
			e.After(delays[i&7], nop)
			e.Step()
			i++
		}
	})
	return nil
}

// probeCache: a 4 KB two-way cache with 64-byte lines whose requests
// go nowhere; the probe plays the memory side itself.
func probeCache(o options, values map[string]float64) error {
	const lineSize, lines = 64, 64
	var eng sim.Engine
	c := cache.New(&eng, 0, cache.Config{Size: lineSize * lines, LineSize: lineSize, Assoc: 2, MSHRs: 5},
		func(memory.Msg, bool) bool { return true }, func(func()) {})
	on := &cache.FuncBinder{}
	fill := func(line uint64) {
		if c.Access(cache.Request{Kind: cache.Read, Addr: line, On: on}) == cache.Miss {
			c.Receive(memory.Msg{Kind: memory.DataShared, Line: line})
			eng.Run(nil)
		}
	}

	fill(0)
	hits := o.size(1_000_000)
	values["cache.hit_ns"] = nsPerOp(hits, func() {
		for k := 0; k < hits; k++ {
			c.Access(cache.Request{Kind: cache.Read, Addr: 8})
		}
	})

	// Misses walk fresh lines, so every one allocates an MSHR, takes
	// its fill and evicts a clean victim.
	misses := o.size(50_000)
	next := uint64(lineSize)
	values["cache.miss_ns"] = nsPerOp(misses, func() {
		for k := 0; k < misses; k++ {
			fill(next)
			next += lineSize
		}
	})

	// Invalidations: refill the whole cache untimed, invalidate it timed.
	rounds := o.size(2000)
	var sw stopwatch
	for r := 0; r < rounds; r++ {
		for l := uint64(0); l < lines; l++ {
			fill(l * lineSize)
		}
		sw.start()
		for l := uint64(0); l < lines; l++ {
			c.Receive(memory.Msg{Kind: memory.Invalidate, Line: l * lineSize})
		}
		sw.stop()
	}
	values["cache.inval_ns"] = float64(sw.total.Nanoseconds()) / float64(rounds*lines)
	return nil
}

// probeNetwork: a 64-port network, one message at a time between
// unrelated ports, then every port sending to port 0 at once.
func probeNetwork(o options, values map[string]float64) error {
	const ports = 64
	var eng sim.Engine
	n := network.New(&eng, ports, 4, func(int, network.Message) {})
	msgs := o.size(100_000)
	k := 0
	values["network.msg_ns"] = nsPerOp(msgs, func() {
		for i := 0; i < msgs; i++ {
			n.TrySend(network.Message{Src: k % ports, Dst: (7*k + 3) % ports, Flits: 1})
			eng.Run(nil)
			k++
		}
	})

	perPort := o.size(200)
	var remaining [ports]int
	var retry [ports]func()
	for src := range retry {
		retry[src] = func() {
			for remaining[src] > 0 {
				if !n.TrySend(network.Message{Src: src, Dst: 0, Flits: 1}) {
					n.WhenSpace(src, retry[src])
					return
				}
				remaining[src]--
			}
		}
	}
	values["network.hotspot_msg_ns"] = nsPerOp(ports*perPort, func() {
		for src := range remaining {
			remaining[src] = perPort
			retry[src]()
		}
		eng.Run(nil)
	})
	return nil
}

// probeMemory: one memory module with its directory; the probe plays
// the caches.
func probeMemory(o options, values map[string]float64) error {
	const lineSize = 64
	var eng sim.Engine
	var invalidated []int
	grants := 0
	newModule := func() *memory.Module {
		return memory.NewModule(&eng, 0, lineSize, func(dst int, m memory.Msg) bool {
			switch m.Kind {
			case memory.Invalidate:
				invalidated = append(invalidated, dst)
			case memory.DataExclusive:
				grants++
			}
			return true
		}, func(func()) {})
	}

	reads := o.size(50_000)
	values["memory.read_ns"] = nsPerOp(reads, func() {
		mod := newModule()
		for k := uint64(0); k < uint64(reads); k++ {
			mod.Receive(1, memory.Msg{Kind: memory.ReadReq, Line: k * lineSize})
			eng.Run(nil)
		}
	})

	// A write to a line eight caches share: eight invalidations out,
	// eight acknowledgements in, then the exclusive grant.
	const sharers = 8
	txLines := o.size(500)
	var sw stopwatch
	for b := 0; b < probeBatches; b++ {
		mod := newModule()
		for l := uint64(0); l < uint64(txLines); l++ {
			for src := 0; src < sharers; src++ {
				mod.Receive(src, memory.Msg{Kind: memory.ReadReq, Line: l * lineSize})
				eng.Run(nil)
			}
		}
		sw.start()
		for l := uint64(0); l < uint64(txLines); l++ {
			mod.Receive(sharers, memory.Msg{Kind: memory.WriteReq, Line: l * lineSize})
			eng.Run(nil)
			for len(invalidated) > 0 {
				acks := invalidated
				invalidated = nil
				for _, src := range acks {
					mod.Receive(src, memory.Msg{Kind: memory.InvAck, Line: l * lineSize})
				}
				eng.Run(nil)
			}
		}
		sw.stop()
	}
	if grants != probeBatches*txLines {
		return fmt.Errorf("memory probe: %d exclusive grants for %d write transactions", grants, probeBatches*txLines)
	}
	values["memory.inval_tx_ns"] = float64(sw.total.Nanoseconds()) / float64(probeBatches*txLines)
	return nil
}

// aluLoop is a private-register loop: no shared access, so the time is
// the processor's issue loop alone.
const aluLoop = `
        li   r3, 100000
loop:   addi r4, r4, 1
        add  r5, r5, r4
        xor  r6, r5, r4
        addi r3, r3, -1
        bne  r3, r0, loop
        halt
`

func probeCPU(_ options, values map[string]float64) error {
	prog, err := asm.Assemble(aluLoop)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric string
		model  consistency.Model
	}{{"cpu.instr_ns_sc1", consistency.SC1}, {"cpu.instr_ns_rc", consistency.RC}} {
		var ns []float64
		for b := 0; b < probeBatches; b++ {
			m, err := machine.New(machine.Config{Procs: 2, Model: c.model, CacheSize: 4 << 10, LineSize: 64,
				SharedWords: 1 << 10}, [][]isa.Inst{prog, prog})
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := m.Run(0)
			wall := time.Since(t0)
			if err != nil {
				return err
			}
			ns = append(ns, float64(wall.Nanoseconds())/float64(res.Instructions()))
		}
		values[c.metric] = median(ns)
	}
	return nil
}

// bigPsim is the probes' long steady-state run: Psim under SC1 on the
// biggest machine of the benchmark (16 processors in a smoke run).
func bigPsim(o options) (experiments.Params, experiments.RunSpec) {
	p := experiments.Quick()
	procs := 64
	if o.smoke {
		procs = 16
	}
	return p, experiments.RunSpec{Bench: experiments.BPsim, Model: consistency.SC1, Procs: procs,
		CacheSize: p.LargeCache, LineSize: 64}
}

// probeMachine: the big Psim run with and without spin fast-forward,
// and construction of a litmus-sized machine.
func probeMachine(o options, values map[string]float64) error {
	p, s := bigPsim(o)
	var walls [2]float64
	var results [2]machine.Result
	for i, noSkip := range []bool{false, true} {
		_, m, err := newMachine(nil, -1, p, s, noSkip)
		if err != nil {
			return err
		}
		t0 := time.Now()
		results[i], err = m.Run(p.MaxEvents)
		walls[i] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
	}
	if a, b := results[0].Checksum(), results[1].Checksum(); a != b {
		return fmt.Errorf("machine probe: spin fast-forward changed the result (%s vs %s)", a, b)
	}
	values["cpu.spin_ab_ratio"] = walls[1] / walls[0]
	values["machine.ns_per_event"] = 1e9 * walls[0] / float64(results[0].Events)
	values["machine.sim_mips"] = float64(results[0].Instructions()) / walls[0] / 1e6

	halt, err := asm.Assemble("halt")
	if err != nil {
		return err
	}
	machines := o.size(2000)
	values["machine.new_us"] = nsPerOp(machines, func() {
		for k := 0; k < machines; k++ {
			machine.New(machine.Config{Procs: 2, Model: consistency.SC1, CacheSize: 1 << 10, LineSize: 16,
				SharedWords: 1 << 11}, [][]isa.Inst{halt, halt})
		}
	}) / 1e3
	return nil
}

// probeSnapshot: pause the big Psim run in mid-flight, then snapshot
// it to a file and restore it into fresh machines.
func probeSnapshot(o options, values map[string]float64) error {
	p, s := bigPsim(o)
	_, m, err := newMachine(nil, -1, p, s, false)
	if err != nil {
		return err
	}
	if _, err := m.RunControlled(machine.RunControl{MaxEvents: p.MaxEvents, Until: 20_000}); !errors.Is(err, machine.ErrPaused) {
		return fmt.Errorf("snapshot probe: run did not pause: %v", err)
	}
	dir, err := os.MkdirTemp(o.out, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.mcsp")
	var save, restore []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		snap, err := m.Snapshot()
		if err == nil {
			err = machine.WriteSnapshotFile(path, snap)
		}
		save = append(save, 1e3*time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		_, fresh, err := newMachine(nil, -1, p, s, false)
		if err != nil {
			return err
		}
		t0 = time.Now()
		snap, err = machine.ReadSnapshotFile(path)
		if err == nil {
			err = fresh.Restore(snap)
		}
		restore = append(restore, 1e3*time.Since(t0).Seconds())
		if err != nil {
			return err
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	values["machine.snapshot_ms"] = median(save)
	values["machine.restore_ms"] = median(restore)
	values["machine.snapshot_kb"] = float64(st.Size()) / 1024
	return nil
}

// probeCheckers: the conformance checkers' building blocks, per call.
func probeCheckers(o options, values map[string]float64) error {
	tests := litmus.Library()
	seeds := 20
	if o.smoke {
		seeds = 2
	}
	var setup, execute stopwatch
	runs := 0
	for _, t := range tests {
		for seed := int64(0); seed < int64(seeds); seed++ {
			setup.start()
			rs, err := litmus.Setup(t, consistency.RC, seed, consistency.MutNone)
			setup.stop()
			if err != nil {
				return err
			}
			execute.start()
			_, err = rs.Execute(nil)
			execute.stop()
			if err != nil {
				return err
			}
			runs++
		}
	}
	values["litmus.setup_us"] = 1e6 * setup.total.Seconds() / float64(runs)
	values["litmus.execute_us"] = 1e6 * execute.total.Seconds() / float64(runs)

	t0 := time.Now()
	for _, t := range tests {
		for _, m := range consistency.Models {
			t.AllowedKeys(consistency.SpecFor(m))
		}
	}
	values["litmus.allowed_ms"] = 1e3 * time.Since(t0).Seconds()
	t0 = time.Now()
	for _, t := range tests {
		if t.Threads == nil {
			continue // a custom test has no declarative threads for the engine
		}
		for _, m := range consistency.Models {
			if _, err := compare.Outcomes(t, consistency.SpecFor(m)); err != nil {
				return err
			}
		}
	}
	values["compare.outcomes_ms"] = 1e3 * time.Since(t0).Seconds()

	budget := compare.DefaultBudget()
	if o.smoke {
		budget.MaxOps = 3
	}
	t0 = time.Now()
	if _, err := compare.Compare(consistency.Models, budget); err != nil {
		return err
	}
	values["compare.lattice_ms"] = 1e3 * time.Since(t0).Seconds()

	const programs = 5
	var allowed, check stopwatch
	for i := int64(0); i < programs; i++ {
		prog := difftest.Generate(difftest.DefaultGen(), goldenSeed+i)
		allowed.start()
		for _, m := range consistency.Models {
			if _, err := difftest.AllowedSet(prog, consistency.SpecFor(m)); err != nil {
				return err
			}
		}
		allowed.stop()
		check.start()
		rep, err := difftest.CheckProgram(context.Background(), prog, consistency.Models,
			difftest.CheckConfig{Runs: 5, Seed: goldenSeed})
		check.stop()
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("checker probe: difftest program %d violated its allowed set", prog.Seed)
		}
	}
	values["difftest.allowed_ms"] = 1e3 * allowed.total.Seconds() / programs
	values["difftest.check_ms"] = 1e3 * check.total.Seconds() / programs
	return nil
}

// probeServer: a small service-mix pass at the golden seed; its
// latencies and phase times are the server layer's readings.
func probeServer(o options, values map[string]float64) error {
	o.seed = goldenSeed
	hits, hitsAfter := 1000, 200
	if o.smoke {
		hits, hitsAfter = 100, 20
	}
	s, err := prepareServiceSized(o, 8, hits, hitsAfter)
	if err != nil {
		return err
	}
	defer s.close()
	r, err := s.pass(nil)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("server probe: %d of %d operations failed: %s", r.failed, r.attempted, r.firstFailure)
	}
	for _, name := range []string{"cold_p50_ms", "hit_p50_us", "hit_p99_us", "hit_rps", "recover_ms", "drain_ms", "journal_kb"} {
		values["server."+name] = r.extra[name]
	}
	return nil
}
