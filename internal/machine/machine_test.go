package machine

import (
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/metrics"
	"memsim/internal/sim"
)

func cfg16() Config {
	return Config{Procs: 16, Model: consistency.SC1, CacheSize: 16 << 10, LineSize: 8, SharedWords: 1 << 16}
}

// sameProg builds the SPMD program table.
func sameProg(n int, prog []isa.Inst) [][]isa.Inst {
	ps := make([][]isa.Inst, n)
	ps[0] = prog
	return ps
}

// haltRest pads program slots so only CPU 0 does work.
func onlyCPU0(n int, prog []isa.Inst) [][]isa.Inst {
	ps := make([][]isa.Inst, n)
	ps[0] = prog
	halt := []isa.Inst{{Op: isa.HALT}}
	for i := 1; i < n; i++ {
		ps[i] = halt
	}
	return ps
}

func mustRun(t *testing.T, cfg Config, progs [][]isa.Inst, setup func(*Machine)) (Result, *Machine) {
	t.Helper()
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if setup != nil {
		setup(m)
	}
	res, err := m.Run(50_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Procs: 1, CacheSize: 1024, LineSize: 8},
		{Procs: 4, CacheSize: 1024, LineSize: 24},
		{Procs: 4, CacheSize: 1000, LineSize: 16},
	}
	prog := []isa.Inst{{Op: isa.HALT}}
	for _, c := range bad {
		if _, err := New(c, sameProg(c.Procs, prog)); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := New(cfg16(), sameProg(4, prog)); err == nil {
		t.Error("mismatched program count accepted")
	}
}

// TestUncontendedMissLatencyCalibration pins the paper's §3.1 numbers:
// the first word of an uncontended read miss arrives 18 cycles after
// issue on a 16-processor machine and 20 cycles at 32 processors.
func TestUncontendedMissLatencyCalibration(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3}, // issued at cycle 1
		{Op: isa.HALT},              // waits for the miss to retire
	}
	cases := []struct {
		procs     int
		wantHalt  sim.Cycle // issue(1) + head + words(1): equals first-word cycle
		wantWords uint64
	}{
		{16, 19, 7},
		{32, 21, 7},
	}
	for _, c := range cases {
		cfg := cfg16()
		cfg.Procs = c.procs
		res, m := mustRun(t, cfg, onlyCPU0(c.procs, prog), func(m *Machine) {
			m.WriteWord(0x100, c.wantWords)
		})
		if res.Cycles != c.wantHalt {
			t.Errorf("procs=%d: halt at %d, want %d", c.procs, res.Cycles, c.wantHalt)
		}
		if got := m.CPU(0).Reg(4); got != c.wantWords {
			t.Errorf("procs=%d: r4 = %d, want %d", c.procs, got, c.wantWords)
		}
	}
}

func TestStoreThenLoadFunctional(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x200},
		{Op: isa.LI, Rd: 5, Imm: 42},
		{Op: isa.ST, Rs1: 3, Rs2: 5},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.HALT},
	}
	for _, model := range consistency.Models {
		cfg := cfg16()
		cfg.Model = model
		res, m := mustRun(t, cfg, onlyCPU0(16, prog), nil)
		if got := m.ReadWord(0x200); got != 42 {
			t.Errorf("%v: memory = %d, want 42", model, got)
		}
		if got := m.CPU(0).Reg(4); got != 42 {
			t.Errorf("%v: r4 = %d, want 42", model, got)
		}
		if res.TotalWrites() != 1 {
			t.Errorf("%v: writes = %d, want 1", model, res.TotalWrites())
		}
		// The load is to the just-written (exclusive) line: a hit — or,
		// on the write-buffer models, forwarded straight from the
		// buffered store without touching the cache.
		wantHits := uint64(1)
		if consistency.SpecFor(model).WriteBuffer {
			wantHits = 0
		}
		if res.Caches[0].ReadHits != wantHits {
			t.Errorf("%v: read hits = %d, want %d", model, res.Caches[0].ReadHits, wantHits)
		}
	}
}

func TestPrivateMemoryRoundTrip(t *testing.T) {
	base := int64(isa.PrivBase)
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: base + 64},
		{Op: isa.LI, Rd: 5, Imm: 7},
		{Op: isa.ST, Rs1: 3, Rs2: 5},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.ADDI, Rd: 6, Rs1: 4, Imm: 1},
		{Op: isa.HALT},
	}
	_, m := mustRun(t, cfg16(), onlyCPU0(16, prog), nil)
	if got := m.CPU(0).Reg(6); got != 8 {
		t.Errorf("r6 = %d, want 8", got)
	}
	st := m.CPU(0).Stats()
	if st.PrivReads != 1 || st.PrivWrites != 1 {
		t.Errorf("private stats %+v, want 1 read 1 write", st)
	}
}

// spinlockIncrement is the canonical critical-section program: every
// CPU acquires a test-and-set lock, increments a shared counter, and
// releases.
//
//	0: li   r3, lockAddr
//	1: li   r4, counterAddr
//	2: tas  r5, 0(r3) !acquire
//	3: bne  r5, r0, 2
//	4: ld   r6, 0(r4)
//	5: addi r6, r6, 1
//	6: st   r6, 0(r4)
//	7: st   r0, 0(r3) !release
//	8: halt
func spinlockIncrement(lockAddr, counterAddr int64) []isa.Inst {
	return []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: lockAddr},
		{Op: isa.LI, Rd: 4, Imm: counterAddr},
		{Op: isa.TAS, Rd: 5, Rs1: 3, Class: isa.ClassAcquire},
		{Op: isa.BNE, Rs1: 5, Rs2: 0, Imm: 2},
		{Op: isa.LD, Rd: 6, Rs1: 4},
		{Op: isa.ADDI, Rd: 6, Rs1: 6, Imm: 1},
		{Op: isa.ST, Rs1: 4, Rs2: 6},
		{Op: isa.ST, Rs1: 3, Rs2: 0, Class: isa.ClassRelease},
		{Op: isa.HALT},
	}
}

func TestSpinlockCounterAllModels(t *testing.T) {
	const lock, counter = 0x100, 0x800
	for _, model := range consistency.Models {
		for _, line := range []int{8, 16, 64} {
			cfg := cfg16()
			cfg.Model = model
			cfg.LineSize = line
			res, m := mustRun(t, cfg, sameProg(16, spinlockIncrement(lock, counter)), nil)
			if got := m.ReadWord(counter); got != 16 {
				t.Errorf("%v/line%d: counter = %d, want 16", model, line, got)
			}
			if res.SyncOps() == 0 && consistency.SpecFor(model).SyncVisible {
				t.Errorf("%v: no sync ops counted", model)
			}
		}
	}
}

// TestFlagSynchronization checks producer/consumer visibility: data
// written before a release-store flag must be seen by an
// acquire-spinning consumer, on every model.
func TestFlagSynchronization(t *testing.T) {
	const data, flag = 0x300, 0x900 // different lines and modules
	producer := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: data},
		{Op: isa.LI, Rd: 4, Imm: flag},
		{Op: isa.LI, Rd: 5, Imm: 1234},
		{Op: isa.ST, Rs1: 3, Rs2: 5},                          // data = 1234
		{Op: isa.LI, Rd: 6, Imm: 1},                           //
		{Op: isa.ST, Rs1: 4, Rs2: 6, Class: isa.ClassRelease}, // flag = 1
		{Op: isa.HALT},
	}
	consumer := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: data},
		{Op: isa.LI, Rd: 4, Imm: flag},
		{Op: isa.LD, Rd: 5, Rs1: 4, Class: isa.ClassAcquire}, // spin on flag
		{Op: isa.BEQ, Rs1: 5, Rs2: 0, Imm: 2},
		{Op: isa.LD, Rd: 6, Rs1: 3}, // read data
		{Op: isa.HALT},
	}
	for _, model := range consistency.Models {
		cfg := cfg16()
		cfg.Model = model
		progs := make([][]isa.Inst, 16)
		progs[0] = producer
		progs[1] = consumer
		halt := []isa.Inst{{Op: isa.HALT}}
		for i := 2; i < 16; i++ {
			progs[i] = halt
		}
		_, m := mustRun(t, cfg, progs, nil)
		if got := m.CPU(1).Reg(6); got != 1234 {
			t.Errorf("%v: consumer read %d, want 1234", model, got)
		}
	}
}

// TestModelsAgreeFunctionally runs a mixed workload (lock counter +
// per-CPU array writes) on every model and checks identical memory.
func TestModelsAgreeFunctionally(t *testing.T) {
	const lock, counter, arr = 0x100, 0x800, 0x1000
	// Each CPU increments the counter under the lock and writes
	// id*3+1 into arr[id].
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: lock},
		{Op: isa.LI, Rd: 4, Imm: counter},
		{Op: isa.TAS, Rd: 5, Rs1: 3, Class: isa.ClassAcquire},
		{Op: isa.BNE, Rs1: 5, Rs2: 0, Imm: 2},
		{Op: isa.LD, Rd: 6, Rs1: 4},
		{Op: isa.ADDI, Rd: 6, Rs1: 6, Imm: 1},
		{Op: isa.ST, Rs1: 4, Rs2: 6},
		{Op: isa.ST, Rs1: 3, Rs2: 0, Class: isa.ClassRelease},
		// arr[id] = id*3 + 1
		{Op: isa.LI, Rd: 7, Imm: 3},
		{Op: isa.MUL, Rd: 7, Rs1: 1, Rs2: 7},
		{Op: isa.ADDI, Rd: 7, Rs1: 7, Imm: 1},
		{Op: isa.SLLI, Rd: 8, Rs1: 1, Imm: 3},
		{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: arr},
		{Op: isa.ST, Rs1: 8, Rs2: 7},
		{Op: isa.HALT},
	}
	var want []uint64
	for _, model := range consistency.Models {
		cfg := cfg16()
		cfg.Model = model
		_, m := mustRun(t, cfg, sameProg(16, prog), nil)
		if got := m.ReadWord(counter); got != 16 {
			t.Fatalf("%v: counter = %d", model, got)
		}
		var vals []uint64
		for i := 0; i < 16; i++ {
			vals = append(vals, m.ReadWord(arr+uint64(i*8)))
		}
		if want == nil {
			want = vals
			for i, v := range vals {
				if v != uint64(i*3+1) {
					t.Fatalf("arr[%d] = %d, want %d", i, v, i*3+1)
				}
			}
			continue
		}
		for i := range vals {
			if vals[i] != want[i] {
				t.Errorf("%v: arr[%d] = %d, want %d", model, i, vals[i], want[i])
			}
		}
	}
}

// TestWO2LoadsBypass: under WO2 load requests carry the bypass flag
// and the network records bypasses under store pressure.
func TestWO2LoadsBypass(t *testing.T) {
	// A tiny one-set cache: every store miss eventually evicts a dirty
	// line, so long write-back messages pile up in the interface
	// buffer; interleaved loads then jump the queue.
	var prog []isa.Inst
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 3, Imm: 0x0})
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 5, Imm: 9})
	for i := 0; i < 12; i++ {
		prog = append(prog, isa.Inst{Op: isa.ST, Rs1: 3, Rs2: 5, Imm: int64(i * 0x400)})
		prog = append(prog, isa.Inst{Op: isa.LD, Rd: isa.Reg(6 + i%4), Rs1: 3, Imm: int64(0x10000 + i*0x440)})
	}
	prog = append(prog, isa.Inst{Op: isa.HALT})
	cfg := cfg16()
	cfg.Model = consistency.WO2
	cfg.LineSize = 64
	cfg.CacheSize = 128 // one 2-way set of 64B lines
	cfg.MSHRs = 8       // enough outstanding slots to keep issuing
	res, _ := mustRun(t, cfg, onlyCPU0(16, prog), nil)
	if res.ReqNet.Bypasses == 0 {
		t.Error("WO2 recorded no bypasses")
	}
	cfg.Model = consistency.WO1
	res, _ = mustRun(t, cfg, onlyCPU0(16, prog), nil)
	if res.ReqNet.Bypasses != 0 {
		t.Error("WO1 recorded bypasses")
	}
}

// TestRelaxedModelsFasterOnMissHeavyWorkload: a pointer-free streaming
// write workload with misses should run at least as fast under WO1/RC
// as under SC1, and SC1 at least as fast as bSC1 on read misses.
func TestRelaxedModelsFasterOnMissHeavyWorkload(t *testing.T) {
	// Store to 64 distinct lines, then load them back.
	var prog []isa.Inst
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 3, Imm: 0})
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 5, Imm: 77})
	for i := 0; i < 64; i++ {
		// Stride chosen so consecutive lines land on different memory
		// modules; a single hot module would serialize every model.
		prog = append(prog, isa.Inst{Op: isa.ST, Rs1: 3, Rs2: 5, Imm: int64(i * 0x108)})
	}
	prog = append(prog, isa.Inst{Op: isa.HALT})

	run := func(model consistency.Model) sim.Cycle {
		cfg := cfg16()
		cfg.Model = model
		res, _ := mustRun(t, cfg, onlyCPU0(16, prog), nil)
		return res.Cycles
	}
	sc1 := run(consistency.SC1)
	wo1 := run(consistency.WO1)
	rc := run(consistency.RC)
	if wo1 > sc1 {
		t.Errorf("WO1 (%d) slower than SC1 (%d) on write-miss stream", wo1, sc1)
	}
	if rc > sc1 {
		t.Errorf("RC (%d) slower than SC1 (%d)", rc, sc1)
	}
	// With 5 MSHRs the overlap should be substantial, not marginal.
	if float64(wo1) > 0.6*float64(sc1) {
		t.Errorf("WO1 (%d) hides too little latency vs SC1 (%d)", wo1, sc1)
	}
}

// TestBlockingLoadsSlower: bSC1 must be no faster than SC1 on a
// read-miss workload with independent work after the load.
func TestBlockingLoadsSlower(t *testing.T) {
	var prog []isa.Inst
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 3, Imm: 0})
	for i := 0; i < 16; i++ {
		prog = append(prog, isa.Inst{Op: isa.LD, Rd: isa.Reg(4 + i%8), Rs1: 3, Imm: int64(i * 0x100)})
		// Independent ALU work the non-blocking load can overlap.
		for j := 0; j < 6; j++ {
			prog = append(prog, isa.Inst{Op: isa.ADDI, Rd: 20, Rs1: 20, Imm: 1})
		}
	}
	prog = append(prog, isa.Inst{Op: isa.HALT})
	run := func(model consistency.Model) sim.Cycle {
		cfg := cfg16()
		cfg.Model = model
		res, _ := mustRun(t, cfg, onlyCPU0(16, prog), nil)
		return res.Cycles
	}
	sc1 := run(consistency.SC1)
	bsc1 := run(consistency.BSC1)
	if bsc1 < sc1 {
		t.Errorf("bSC1 (%d) faster than SC1 (%d)", bsc1, sc1)
	}
	wo1 := run(consistency.WO1)
	bwo1 := run(consistency.BWO1)
	if bwo1 < wo1 {
		t.Errorf("bWO1 (%d) faster than WO1 (%d)", bwo1, wo1)
	}
}

// TestSC2PrefetchHelpsPipelinedMisses: consecutive independent misses
// benefit from SC2's non-binding prefetch.
func TestSC2PrefetchHelpsPipelinedMisses(t *testing.T) {
	var prog []isa.Inst
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 3, Imm: 0})
	for i := 0; i < 32; i++ {
		prog = append(prog, isa.Inst{Op: isa.LD, Rd: isa.Reg(4 + i%8), Rs1: 3, Imm: int64(i * 0x100)})
	}
	prog = append(prog, isa.Inst{Op: isa.HALT})
	run := func(model consistency.Model) (sim.Cycle, Result) {
		cfg := cfg16()
		cfg.Model = model
		res, _ := mustRun(t, cfg, onlyCPU0(16, prog), nil)
		return res.Cycles, res
	}
	sc1, _ := run(consistency.SC1)
	sc2, res2 := run(consistency.SC2)
	if res2.Caches[0].Prefetches == 0 {
		t.Fatal("SC2 issued no prefetches")
	}
	if sc2 >= sc1 {
		t.Errorf("SC2 (%d) not faster than SC1 (%d) on back-to-back misses", sc2, sc1)
	}
}

// TestInvalidationMissesCounted: CPU0 writes a line CPU1 had cached;
// CPU1's re-read is an invalidation miss.
func TestInvalidationMissesCounted(t *testing.T) {
	const addr, flag, flag2 = 0x100, 0x900, 0xa00
	reader := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: addr},
		{Op: isa.LI, Rd: 4, Imm: flag},
		{Op: isa.LD, Rd: 5, Rs1: 3}, // cache the line
		{Op: isa.LI, Rd: 6, Imm: 1},
		{Op: isa.ST, Rs1: 4, Rs2: 6, Class: isa.ClassRelease}, // tell writer
		{Op: isa.LI, Rd: 7, Imm: flag2},
		{Op: isa.LD, Rd: 8, Rs1: 7, Class: isa.ClassAcquire}, // wait for writer
		{Op: isa.BEQ, Rs1: 8, Rs2: 0, Imm: 6},
		{Op: isa.LD, Rd: 9, Rs1: 3}, // re-read: invalidation miss
		{Op: isa.HALT},
	}
	writer := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: addr},
		{Op: isa.LI, Rd: 4, Imm: flag},
		{Op: isa.LD, Rd: 5, Rs1: 4, Class: isa.ClassAcquire}, // wait for reader
		{Op: isa.BEQ, Rs1: 5, Rs2: 0, Imm: 2},
		{Op: isa.LI, Rd: 6, Imm: 55},
		{Op: isa.ST, Rs1: 3, Rs2: 6}, // invalidates reader's copy
		{Op: isa.LI, Rd: 7, Imm: flag2},
		{Op: isa.LI, Rd: 8, Imm: 1},
		{Op: isa.ST, Rs1: 7, Rs2: 8, Class: isa.ClassRelease},
		{Op: isa.HALT},
	}
	cfg := cfg16()
	cfg.Model = consistency.WO1
	progs := make([][]isa.Inst, 16)
	progs[0] = reader
	progs[1] = writer
	halt := []isa.Inst{{Op: isa.HALT}}
	for i := 2; i < 16; i++ {
		progs[i] = halt
	}
	res, m := mustRun(t, cfg, progs, nil)
	if got := m.CPU(0).Reg(9); got != 55 {
		t.Errorf("re-read value %d, want 55", got)
	}
	if res.Caches[0].InvalidationMisses == 0 {
		t.Error("no invalidation miss counted")
	}
}

func TestResultAggregates(t *testing.T) {
	prog := spinlockIncrement(0x100, 0x800)
	res, _ := mustRun(t, cfg16(), sameProg(16, prog), nil)
	if res.Instructions() == 0 || res.TotalReads() == 0 || res.TotalWrites() == 0 {
		t.Fatalf("empty aggregates: %+v", res)
	}
	if hr := res.HitRate(); hr < 0 || hr > 1 {
		t.Errorf("hit rate %f out of range", hr)
	}
	if res.ModuleUtilizationSpread() < 1 {
		t.Errorf("utilization spread < 1")
	}
	base := res
	faster := res
	faster.Cycles = res.Cycles / 2
	if g := faster.GainOver(base); g < 0.49 || g > 0.51 {
		t.Errorf("GainOver = %f, want ~0.5", g)
	}
}

// TestLDXFetchesOwnership: a load-with-write-intent makes the
// following store to the same line hit, unlike a plain load.
func TestLDXFetchesOwnership(t *testing.T) {
	mk := func(op isa.Op) []isa.Inst {
		return []isa.Inst{
			{Op: isa.LI, Rd: 3, Imm: 0x200},
			{Op: op, Rd: 4, Rs1: 3},      // load a[0]
			{Op: isa.ST, Rs1: 3, Rs2: 4}, // store back
			{Op: isa.HALT},
		}
	}
	run := func(op isa.Op) Result {
		res, _ := mustRun(t, cfg16(), onlyCPU0(16, mk(op)), func(m *Machine) {
			m.WriteWord(0x200, 77)
		})
		return res
	}
	plain := run(isa.LD)
	rwo := run(isa.LDX)
	if plain.Caches[0].WriteHits != 0 {
		t.Errorf("plain load: store hit unexpectedly")
	}
	if rwo.Caches[0].WriteHits != 1 {
		t.Errorf("ldx: store missed (writes=%d hits=%d)",
			rwo.Caches[0].Writes, rwo.Caches[0].WriteHits)
	}
	if rwo.Cycles >= plain.Cycles {
		t.Errorf("ldx (%d cycles) not faster than plain (%d)", rwo.Cycles, plain.Cycles)
	}
}

// TestLDXValueCorrectAcrossModels: the bound value matches memory.
func TestLDXValueCorrectAcrossModels(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x200},
		{Op: isa.LDX, Rd: 4, Rs1: 3},
		{Op: isa.ADDI, Rd: 5, Rs1: 4, Imm: 1},
		{Op: isa.ST, Rs1: 3, Rs2: 5},
		{Op: isa.HALT},
	}
	for _, model := range consistency.Models {
		cfg := cfg16()
		cfg.Model = model
		_, m := mustRun(t, cfg, onlyCPU0(16, prog), func(m *Machine) {
			m.WriteWord(0x200, 10)
		})
		if got := m.ReadWord(0x200); got != 11 {
			t.Errorf("%v: memory = %d, want 11", model, got)
		}
	}
}

// TestCollectorRecordsProtocolTraffic: every read miss shows up as a
// request/response pair in an attached collector's message ring.
func TestCollectorRecordsProtocolTraffic(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.HALT},
	}
	m, err := New(cfg16(), onlyCPU0(16, prog))
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	m.AttachMetrics(mc)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	type kind struct {
		net  metrics.Net
		recv bool
	}
	kinds := map[kind]int{}
	msgs, _ := mc.Msgs()
	for _, e := range msgs {
		kinds[kind{e.Net, e.Recv}]++
	}
	if kinds[kind{metrics.NetReq, false}] == 0 || kinds[kind{metrics.NetReq, true}] == 0 {
		t.Errorf("no request traffic recorded: %v", kinds)
	}
	if kinds[kind{metrics.NetResp, false}] == 0 || kinds[kind{metrics.NetResp, true}] == 0 {
		t.Errorf("no response traffic recorded: %v", kinds)
	}
}

// TestRCAcquireIgnoresPendingStores: RC may issue an acquire while a
// store miss is outstanding; WO1 must drain first.
func TestRCAcquireIgnoresPendingStores(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LI, Rd: 4, Imm: 0x900},
		{Op: isa.ST, Rs1: 3, Rs2: 3},                         // store miss outstanding
		{Op: isa.LD, Rd: 5, Rs1: 4, Class: isa.ClassAcquire}, // acquire
		{Op: isa.HALT},
	}
	run := func(model consistency.Model) (sim.Cycle, Result) {
		cfg := cfg16()
		cfg.Model = model
		res, _ := mustRun(t, cfg, onlyCPU0(16, prog), nil)
		return res.Cycles, res
	}
	rcC, rcR := run(consistency.RC)
	woC, woR := run(consistency.WO1)
	if rcC >= woC {
		t.Errorf("RC (%d) not faster than WO1 (%d) for acquire past a store", rcC, woC)
	}
	if woR.CPUs[0].StallDrain == 0 {
		t.Error("WO1 did not drain before the acquire")
	}
	if rcR.CPUs[0].StallDrain != 0 {
		t.Error("RC drained before the acquire")
	}
}

// TestReleaseWaitsForPriorAccesses: under RC the release store must
// not perform before the data stores outstanding at its issue; the
// flag reader then always sees the data.
func TestRCReleaseOrdering(t *testing.T) {
	// Producer: 4 scattered store misses, then flag release.
	producer := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.LI, Rd: 5, Imm: 7},
		{Op: isa.ST, Rs1: 3, Rs2: 5, Imm: 0x208},
		{Op: isa.ST, Rs1: 3, Rs2: 5, Imm: 0x408},
		{Op: isa.ST, Rs1: 3, Rs2: 5, Imm: 0x608},
		{Op: isa.ST, Rs1: 3, Rs2: 5, Imm: 0x808},
		{Op: isa.LI, Rd: 6, Imm: 1},
		{Op: isa.ST, Rs1: 3, Rs2: 6, Imm: 0xa08, Class: isa.ClassRelease},
		{Op: isa.HALT},
	}
	consumer := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.LD, Rd: 5, Rs1: 3, Imm: 0xa08, Class: isa.ClassAcquire},
		{Op: isa.BEQ, Rs1: 5, Rs2: 0, Imm: 1},
		{Op: isa.LD, Rd: 6, Rs1: 3, Imm: 0x208},
		{Op: isa.LD, Rd: 7, Rs1: 3, Imm: 0x408},
		{Op: isa.LD, Rd: 8, Rs1: 3, Imm: 0x608},
		{Op: isa.LD, Rd: 9, Rs1: 3, Imm: 0x808},
		{Op: isa.HALT},
	}
	cfg := cfg16()
	cfg.Model = consistency.RC
	progs := make([][]isa.Inst, 16)
	progs[0] = producer
	progs[1] = consumer
	halt := []isa.Inst{{Op: isa.HALT}}
	for i := 2; i < 16; i++ {
		progs[i] = halt
	}
	_, m := mustRun(t, cfg, progs, nil)
	for _, r := range []isa.Reg{6, 7, 8, 9} {
		if got := m.CPU(1).Reg(r); got != 7 {
			t.Errorf("consumer r%d = %d, want 7 (release ordered after data)", r, got)
		}
	}
}

// TestBranchDelayConfigurable: delay 2 machines run branchy code
// faster than delay 4 machines.
func TestBranchDelayConfigurable(t *testing.T) {
	var prog []isa.Inst
	prog = append(prog, isa.Inst{Op: isa.LI, Rd: 3, Imm: 200})
	prog = append(prog, isa.Inst{Op: isa.ADDI, Rd: 3, Rs1: 3, Imm: -1})
	prog = append(prog, isa.Inst{Op: isa.BNE, Rs1: 3, Rs2: 0, Imm: 1})
	prog = append(prog, isa.Inst{Op: isa.HALT})
	run := func(delay int) sim.Cycle {
		cfg := cfg16()
		cfg.LoadDelay = delay
		res, _ := mustRun(t, cfg, onlyCPU0(16, prog), nil)
		return res.Cycles
	}
	d2, d4 := run(2), run(4)
	// 200 iterations x (1 + branch): delay 4 adds ~2 cycles per branch.
	if d4-d2 < 300 {
		t.Errorf("delay4 (%d) vs delay2 (%d): expected ~400 cycle difference", d4, d2)
	}
}
