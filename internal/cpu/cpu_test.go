package cpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"memsim/internal/cache"
	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/memory"
	"memsim/internal/sim"
)

// fakeMem is a flat MemImage for CPU-only tests.
type fakeMem map[uint64]uint64

func (m fakeMem) ReadWord(addr uint64) uint64     { return m[addr] }
func (m fakeMem) WriteWord(addr uint64, v uint64) { m[addr] = v }

// rig builds a CPU with a real cache whose network side is a loopback
// that grants every request after a fixed delay.
type rig struct {
	eng   sim.Engine
	cpu   *CPU
	cache *cache.Cache
	mem   fakeMem
	delay sim.Cycle // request -> data-header delay
}

func newRig(t *testing.T, model consistency.Model, prog []isa.Inst) *rig {
	t.Helper()
	r := &rig{mem: fakeMem{}, delay: 17}
	var pending []memory.Msg
	r.cache = cache.New(&r.eng, 0,
		cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 2, MSHRs: 5},
		func(msg memory.Msg, bypass bool) bool {
			switch msg.Kind {
			case memory.ReadReq:
				m := memory.Msg{Kind: memory.DataShared, Line: msg.Line}
				r.eng.After(r.delay, func() { r.cache.Receive(m) })
			case memory.WriteReq:
				m := memory.Msg{Kind: memory.DataExclusive, Line: msg.Line}
				r.eng.After(r.delay, func() { r.cache.Receive(m) })
			case memory.WriteBack, memory.InvAck, memory.FlushInv, memory.FlushShare:
				// swallowed
			}
			pending = append(pending, msg)
			return true
		},
		func(fn func()) { panic("no backpressure in rig") },
	)
	r.cpu = New(&r.eng, Config{
		ID:          0,
		Spec:        consistency.SpecFor(model),
		Prog:        prog,
		Cache:       r.cache,
		Mem:         r.mem,
		SharedWords: 1 << 20,
		LoadDelay:   4,
		BranchDelay: 4,
		MSHRs:       5,
	})
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	r.cpu.Start()
	if !r.eng.RunLimit(nil, 1_000_000) {
		t.Fatalf("cpu livelocked at pc %d", r.cpu.PC())
	}
	if !r.cpu.Halted() {
		t.Fatalf("cpu did not halt (pc %d)", r.cpu.PC())
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		prog []isa.Inst
		reg  isa.Reg
		want uint64
	}{
		{"add", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: 7}, {Op: isa.LI, Rd: 4, Imm: 5},
			{Op: isa.ADD, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, 12},
		{"sub-negative", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: 5}, {Op: isa.LI, Rd: 4, Imm: 7},
			{Op: isa.SUB, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, ^uint64(1)},
		{"mul", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: -3}, {Op: isa.LI, Rd: 4, Imm: 9},
			{Op: isa.MUL, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, ^uint64(26)},
		{"div-by-zero", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: 5},
			{Op: isa.DIV, Rd: 5, Rs1: 3, Rs2: 0}, {Op: isa.HALT}}, 5, 0},
		{"rem-negative", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: -7}, {Op: isa.LI, Rd: 4, Imm: 3},
			{Op: isa.REM, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, ^uint64(0)},
		{"slt-signed", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: -1}, {Op: isa.LI, Rd: 4, Imm: 1},
			{Op: isa.SLT, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, 1},
		{"sltu-unsigned", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: -1}, {Op: isa.LI, Rd: 4, Imm: 1},
			{Op: isa.SLTU, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, 0},
		{"sra", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: -16},
			{Op: isa.SRAI, Rd: 5, Rs1: 3, Imm: 2}, {Op: isa.HALT}}, 5, ^uint64(3)},
		{"srl", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: 16},
			{Op: isa.SRLI, Rd: 5, Rs1: 3, Imm: 2}, {Op: isa.HALT}}, 5, 4},
		{"seq", []isa.Inst{{Op: isa.LI, Rd: 3, Imm: 4}, {Op: isa.LI, Rd: 4, Imm: 4},
			{Op: isa.SEQ, Rd: 5, Rs1: 3, Rs2: 4}, {Op: isa.HALT}}, 5, 1},
	}
	for _, c := range cases {
		r := newRig(t, consistency.SC1, c.prog)
		r.run(t)
		if got := r.cpu.Reg(c.reg); got != c.want {
			t.Errorf("%s: r%d = %d, want %d", c.name, c.reg, got, c.want)
		}
	}
}

func TestFloatSemantics(t *testing.T) {
	f := func(v float64) int64 { return int64(math.Float64bits(v)) }
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: f(1.5)},
		{Op: isa.LI, Rd: 4, Imm: f(2.25)},
		{Op: isa.FADD, Rd: 5, Rs1: 3, Rs2: 4}, // 3.75
		{Op: isa.FMUL, Rd: 6, Rs1: 3, Rs2: 4}, // 3.375
		{Op: isa.FDIV, Rd: 7, Rs1: 4, Rs2: 3}, // 1.5
		{Op: isa.FSLT, Rd: 8, Rs1: 3, Rs2: 4}, // 1
		{Op: isa.LI, Rd: 9, Imm: -3},
		{Op: isa.ITOF, Rd: 10, Rs1: 9}, // -3.0
		{Op: isa.FTOI, Rd: 11, Rs1: 5}, // 3
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.SC1, prog)
	r.run(t)
	checks := map[isa.Reg]uint64{
		5:  math.Float64bits(3.75),
		6:  math.Float64bits(3.375),
		7:  math.Float64bits(1.5),
		8:  1,
		10: math.Float64bits(-3.0),
		11: 3,
	}
	for reg, want := range checks {
		if got := r.cpu.Reg(reg); got != want {
			t.Errorf("r%d = %#x, want %#x", reg, got, want)
		}
	}
}

func TestR0HardwiredZero(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 0, Imm: 99},
		{Op: isa.ADDI, Rd: 3, Rs1: 0, Imm: 1},
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.SC1, prog)
	r.run(t)
	if r.cpu.Reg(0) != 0 {
		t.Error("r0 modified")
	}
	if r.cpu.Reg(3) != 1 {
		t.Errorf("r3 = %d, want 1", r.cpu.Reg(3))
	}
}

// TestR0LoadMissDoesNotWedge: a shared load or test-and-set into r0
// that misses discards its value, so r0 never waits on it; the next
// instruction that reads r0 runs, under every model, by both miss
// paths (ordinary, and an acquire where the model makes it a sync op).
func TestR0LoadMissDoesNotWedge(t *testing.T) {
	for _, model := range consistency.Models {
		for _, op := range []isa.Op{isa.LD, isa.LDX, isa.TAS} {
			for _, cl := range []isa.Class{isa.ClassPlain, isa.ClassAcquire} {
				prog := []isa.Inst{
					{Op: isa.LI, Rd: 3, Imm: 0x100},
					{Op: op, Rd: 0, Rs1: 3, Class: cl},
					{Op: isa.ADDI, Rd: 4, Rs1: 0, Imm: 1},
					{Op: isa.HALT},
				}
				r := newRig(t, model, prog)
				r.mem[0x100] = 7
				r.cpu.Start()
				r.eng.RunLimit(nil, 1_000_000)
				if !r.cpu.Halted() || r.cpu.Reg(0) != 0 || r.cpu.Reg(4) != 1 {
					t.Errorf("%v %s !%s into r0: halted=%v (%s at pc %d), r0=%d r4=%d, want halted, 0, 1",
						model, op, cl, r.cpu.Halted(), r.cpu.ParkedReason(), r.cpu.PC(), r.cpu.Reg(0), r.cpu.Reg(4))
				}
				if err := r.cpu.CheckInterlocks(); err != nil {
					t.Errorf("%v %s !%s: %v", model, op, cl, err)
				}
			}
		}
	}
}

func TestLoadDelayInterlock(t *testing.T) {
	// A private load followed immediately by a use stalls loadDelay
	// cycles; with independent work in between it does not.
	mk := func(filler int) []isa.Inst {
		prog := []isa.Inst{
			{Op: isa.LI, Rd: 3, Imm: int64(isa.PrivBase)},
			{Op: isa.LD, Rd: 4, Rs1: 3},
		}
		for i := 0; i < filler; i++ {
			prog = append(prog, isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1})
		}
		prog = append(prog, isa.Inst{Op: isa.ADDI, Rd: 6, Rs1: 4, Imm: 1}, isa.Inst{Op: isa.HALT})
		return prog
	}
	r0 := newRig(t, consistency.SC1, mk(0))
	r0.run(t)
	r3 := newRig(t, consistency.SC1, mk(3))
	r3.run(t)
	s0 := r0.cpu.Stats()
	s3 := r3.cpu.Stats()
	if s0.StallInterlock != 3 { // issue at t, ready t+4, use would be t+1
		t.Errorf("no-filler interlock = %d, want 3", s0.StallInterlock)
	}
	if s3.StallInterlock != 0 {
		t.Errorf("filled interlock = %d, want 0", s3.StallInterlock)
	}
}

func TestBranchDelayCharged(t *testing.T) {
	// 10 taken branches at 4 cycles each dominate this loop.
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 10},
		{Op: isa.ADDI, Rd: 3, Rs1: 3, Imm: -1},
		{Op: isa.BNE, Rs1: 3, Rs2: 0, Imm: 1},
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.SC1, prog)
	r.run(t)
	// li(1) + 10*(addi 1 + branch 4) + halt(1) = 52 ± epsilon
	if c := r.cpu.Stats().HaltCycle; c < 50 || c > 54 {
		t.Errorf("halt at %d, want ~52", c)
	}
}

func TestSC1StallsSecondAccessWhileOutstanding(t *testing.T) {
	// Two loads to different lines: under SC1 the second must wait for
	// the first to retire; under WO1 they overlap.
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.LD, Rd: 5, Rs1: 3, Imm: 0x100},
		{Op: isa.HALT},
	}
	sc := newRig(t, consistency.SC1, prog)
	sc.run(t)
	wo := newRig(t, consistency.WO1, prog)
	wo.run(t)
	if sc.cpu.Stats().StallOutstanding == 0 {
		t.Error("SC1 did not stall the second access")
	}
	if wo.cpu.Stats().StallOutstanding != 0 {
		t.Error("WO1 stalled despite free MSHRs")
	}
	if wo.cpu.Stats().HaltCycle >= sc.cpu.Stats().HaltCycle {
		t.Errorf("WO1 (%d) not faster than SC1 (%d)",
			wo.cpu.Stats().HaltCycle, sc.cpu.Stats().HaltCycle)
	}
}

func TestWOConflictOnSameLine(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.LD, Rd: 5, Rs1: 3, Imm: 8}, // same 16B line
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.WO1, prog)
	r.run(t)
	if r.cpu.Stats().StallConflict == 0 {
		t.Error("same-line access did not record a conflict stall")
	}
}

func TestBlockingLoadStallsUntilData(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		// Independent ALU work a non-blocking load would overlap.
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.HALT},
	}
	nb := newRig(t, consistency.SC1, prog)
	nb.run(t)
	bl := newRig(t, consistency.BSC1, prog)
	bl.run(t)
	if bl.cpu.Stats().StallBlocking == 0 {
		t.Error("bSC1 did not record blocking stall")
	}
	if nb.cpu.Stats().StallBlocking != 0 {
		t.Error("SC1 recorded blocking stall")
	}
}

func TestFenceDrainsUnderWO(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.ST, Rs1: 3, Rs2: 3},
		{Op: isa.FENCE, Class: isa.ClassSync},
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.WO1, prog)
	r.run(t)
	if r.cpu.Stats().StallDrain == 0 {
		t.Error("fence did not drain")
	}
	if r.cpu.Stats().SyncOps != 1 {
		t.Errorf("sync ops = %d, want 1", r.cpu.Stats().SyncOps)
	}
	// Under SC1 the fence is invisible.
	sc := newRig(t, consistency.SC1, prog)
	sc.run(t)
	if sc.cpu.Stats().SyncOps != 0 {
		t.Error("SC1 counted a fence as sync")
	}
}

func TestRCReleaseDoesNotStallCPU(t *testing.T) {
	// store-miss, release-store, then ALU work: under RC the CPU sails
	// past the release; under WO1 it drains first.
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.ST, Rs1: 3, Rs2: 3},                                      // miss
		{Op: isa.ST, Rs1: 3, Rs2: 0, Imm: 0x200, Class: isa.ClassRelease}, // release
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.HALT},
	}
	rc := newRig(t, consistency.RC, prog)
	rc.run(t)
	wo := newRig(t, consistency.WO1, prog)
	wo.run(t)
	if rc.cpu.Stats().Releases != 1 {
		t.Errorf("RC releases = %d, want 1", rc.cpu.Stats().Releases)
	}
	if wo.cpu.Stats().StallDrain == 0 {
		t.Error("WO1 release did not drain")
	}
	if rc.cpu.Stats().HaltCycle >= wo.cpu.Stats().HaltCycle {
		t.Errorf("RC (%d) not faster than WO1 (%d) past a release",
			rc.cpu.Stats().HaltCycle, wo.cpu.Stats().HaltCycle)
	}
	// The release must still have performed before the run ended.
	if rc.mem[0x200] != 0 {
		t.Errorf("release wrote %d, want 0", rc.mem[0x200])
	}
}

func TestHaltWaitsForOutstanding(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.ST, Rs1: 3, Rs2: 3},
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.WO1, prog)
	r.run(t)
	// Store issues ~cycle 1; data header at +17, retire at +2 words.
	if c := r.cpu.Stats().HaltCycle; c < 19 {
		t.Errorf("halted at %d before the store performed", c)
	}
	if r.mem[0x100] != 0x100 {
		t.Error("store never performed")
	}
}

func TestPrivMem(t *testing.T) {
	p := NewPrivMem()
	if p.Read(isa.PrivBase) != 0 {
		t.Error("uninitialized private word not zero")
	}
	p.Write(isa.PrivBase+8, 42)
	if p.Read(isa.PrivBase+8) != 42 {
		t.Error("round trip failed")
	}
	// Sparse pages.
	far := isa.PrivBase + 64<<20
	p.Write(far, 7)
	if p.Read(far) != 7 {
		t.Error("far page failed")
	}
	if p.Words() == 0 {
		t.Error("no pages accounted")
	}
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	p.Read(isa.PrivBase + 3)
}

// TestPrivMemResetKeepsZeroedPages: reset empties the store as
// NewPrivMem leaves it, and the pages it kept serve the next writes,
// to whatever page numbers, zeroed.
func TestPrivMemResetKeepsZeroedPages(t *testing.T) {
	p := NewPrivMem()
	for pg := uint64(0); pg < 3; pg++ {
		p.Write(isa.PrivBase+pg*privPageWords*8+8, 0xdead)
	}
	p.reset()
	if p.Words() != 0 || len(p.spare) != 3 {
		t.Fatalf("after reset: %d words, %d spare pages; want 0 and 3", p.Words(), len(p.spare))
	}
	for pg := uint64(5); pg < 8; pg++ {
		addr := isa.PrivBase + pg*privPageWords*8
		p.Write(addr, 1)
		if p.Read(addr+8) != 0 {
			t.Errorf("page %d: a kept page was handed out with an old word", pg)
		}
	}
	if len(p.spare) != 0 || p.Words() != 3*privPageWords {
		t.Errorf("after three writes: %d spare pages, %d words; want 0 and %d", len(p.spare), p.Words(), 3*privPageWords)
	}
}

func TestSyncOpsCountedOncePerIssue(t *testing.T) {
	// An acquire that misses parks and resumes; it must count once.
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3, Class: isa.ClassAcquire},
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.RC, prog)
	r.run(t)
	if got := r.cpu.Stats().SyncOps; got != 1 {
		t.Errorf("sync ops = %d, want 1", got)
	}
	if r.cpu.Stats().StallSync == 0 {
		t.Error("acquire miss did not stall")
	}
}

func TestJALJRSubroutine(t *testing.T) {
	// main: r5 = 7; call double; r6 = r5 after return
	//  0: li r5, 7
	//  1: jal r31, 4
	//  2: mov r6, r5
	//  3: halt
	//  4: add r5, r5, r5   (double)
	//  5: jr r31
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 5, Imm: 7},
		{Op: isa.JAL, Rd: 31, Imm: 4},
		{Op: isa.MOV, Rd: 6, Rs1: 5},
		{Op: isa.HALT},
		{Op: isa.ADD, Rd: 5, Rs1: 5, Rs2: 5},
		{Op: isa.JR, Rs1: 31},
	}
	r := newRig(t, consistency.SC1, prog)
	r.run(t)
	if got := r.cpu.Reg(6); got != 14 {
		t.Errorf("r6 = %d, want 14", got)
	}
}

func TestWAWInterlockOnPendingLoad(t *testing.T) {
	// A shared load miss to r4 followed by an ALU write of r4: the
	// write must wait for the load to bind (no lost update).
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.LI, Rd: 4, Imm: 5}, // WAW with the in-flight load
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.WO1, prog)
	r.mem[0x100] = 42
	r.run(t)
	if got := r.cpu.Reg(4); got != 5 {
		t.Errorf("r4 = %d, want 5 (the later write must win)", got)
	}
}

func TestSC2PrefetchFiresOncePerStall(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.LD, Rd: 5, Rs1: 3, Imm: 0x100}, // blocked: prefetched
		{Op: isa.LD, Rd: 6, Rs1: 3, Imm: 0x200}, // blocked behind r5's access
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.SC2, prog)
	r.run(t)
	// The second load stalls behind the first and fires exactly one
	// prefetch; once it completes as a hit on the prefetched line, the
	// third load issues with nothing outstanding — no further stall,
	// no further prefetch.
	if got := r.cache.Stats().Prefetches; got != 1 {
		t.Errorf("prefetches = %d, want 1", got)
	}
	if r.cpu.Stats().StallOutstanding == 0 {
		t.Error("second load never stalled")
	}
}

func TestWO2PassesBypassFlag(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.ST, Rs1: 3, Rs2: 3, Imm: 0x200},
		{Op: isa.HALT},
	}
	seen := map[bool]int{}
	var eng sim.Engine
	var c *cache.Cache
	c = cache.New(&eng, 0, cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 2, MSHRs: 5},
		func(msg memory.Msg, bypass bool) bool {
			if msg.Kind == memory.ReadReq || msg.Kind == memory.WriteReq {
				seen[bypass]++
				kind := memory.DataShared
				if msg.Kind == memory.WriteReq {
					kind = memory.DataExclusive
				}
				eng.After(17, func() { c.Receive(memory.Msg{Kind: kind, Line: msg.Line}) })
			}
			return true
		},
		func(fn func()) {},
	)
	cp := New(&eng, Config{ID: 0, Spec: consistency.SpecFor(consistency.WO2),
		Prog: prog, Cache: c, Mem: fakeMem{}, SharedWords: 1 << 20, LoadDelay: 4, BranchDelay: 4, MSHRs: 5})
	cp.Start()
	if !eng.RunLimit(nil, 100_000) || !cp.Halted() {
		t.Fatal("did not halt")
	}
	if seen[true] != 1 || seen[false] != 1 {
		t.Errorf("bypass flags seen %v, want 1 load bypassing, 1 store not", seen)
	}
}

func TestStallAccountingSumsReasonably(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0x100},
		{Op: isa.LD, Rd: 4, Rs1: 3},
		{Op: isa.ADDI, Rd: 5, Rs1: 4, Imm: 1}, // interlock on the miss
		{Op: isa.HALT},
	}
	r := newRig(t, consistency.SC1, prog)
	r.run(t)
	st := r.cpu.Stats()
	total := st.StallInterlock + st.StallLoadWait + st.StallOutstanding +
		st.StallDrain + st.StallSync + st.StallBlocking + st.StallConflict
	if total == 0 {
		t.Fatal("no stalls recorded for a dependent miss")
	}
	if st.StallLoadWait == 0 {
		t.Error("dependent miss did not account as load wait")
	}
	if total > uint64(st.HaltCycle) {
		t.Errorf("stall cycles %d exceed run time %d", total, st.HaltCycle)
	}
}

func TestQuickPrivMemMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPrivMem()
		ref := map[uint64]uint64{}
		for i := 0; i < 300; i++ {
			addr := isa.PrivBase + uint64(rng.Intn(1<<14))*8
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				p.Write(addr, v)
				ref[addr] = v
			} else if p.Read(addr) != ref[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
