package progb

import (
	"reflect"
	"testing"

	"memsim/internal/isa"
)

func TestAllocFreePool(t *testing.T) {
	b := New()
	seen := map[isa.Reg]bool{}
	var regs []isa.Reg
	for i := 0; i < 27; i++ { // 32 - 5 reserved
		r := b.Alloc()
		if reserved[r] || r == isa.R0 {
			t.Fatalf("pool handed out reserved register r%d", r)
		}
		if seen[r] {
			t.Fatalf("register r%d handed out twice", r)
		}
		seen[r] = true
		regs = append(regs, r)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("exhausted pool did not panic")
			}
		}()
		b.Alloc()
	}()
	b.Free(regs...)
	if b.InUse() != 0 {
		t.Errorf("InUse = %d after freeing all", b.InUse())
	}
}

func TestFreeUnallocatedPanics(t *testing.T) {
	b := New()
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	b.Free(isa.Reg(20))
}

func TestLabelsResolve(t *testing.T) {
	b := New()
	r := b.Alloc()
	loop := b.NewLabel()
	b.Li(r, 3)
	b.Bind(loop)
	b.Addi(r, r, -1)
	b.Bne(r, isa.R0, loop)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if prog[2].Op != isa.BNE || prog[2].Imm != 1 {
		t.Errorf("branch = %v, want bne to 1", prog[2])
	}
}

// TestResetBuildsAfresh: a reset builder, appending into one array,
// builds what new builders build — same registers, same resolved
// labels — and reuses its labels; a failed append leaves dst as it was.
func TestResetBuildsAfresh(t *testing.T) {
	emit := func(b *Builder, n int) {
		r := b.Alloc()
		done := b.NewLabel()
		b.Li(r, int64(n))
		top := b.Here()
		b.Beq(r, isa.R0, done)
		b.Addi(r, r, -1)
		b.Jmp(top)
		b.Bind(done)
		b.Halt()
	}
	reused := New()
	var code []isa.Inst
	var lens []int
	for n := 1; n <= 3; n++ {
		fresh := New()
		emit(fresh, n)
		want := fresh.MustBuild()

		reused.Reset()
		emit(reused, n)
		start := len(code)
		var err error
		if code, err = reused.AppendProgram(code); err != nil {
			t.Fatal(err)
		}
		if got := code[start:]; !reflect.DeepEqual(got, want) {
			t.Fatalf("program %d: reset builder appended %v, a new one built %v", n, got, want)
		}
		lens = append(lens, len(code)-start)
		if reused.InUse() != 1 || len(reused.labels) != 2 {
			t.Fatalf("program %d: %d registers in use and %d labels, want 1 and 2", n, reused.InUse(), len(reused.labels))
		}
	}
	if len(code) != lens[0]+lens[1]+lens[2] {
		t.Fatalf("appended %d instructions, programs hold %v", len(code), lens)
	}
	reused.Reset()
	reused.Jmp(reused.NewLabel())
	if got, err := reused.AppendProgram(code); err == nil || len(got) != len(code) {
		t.Fatalf("an unbound label appended %d instructions to %d (%v), want an error and none", len(got), len(code), err)
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := New()
	l := b.NewLabel()
	b.Jmp(l)
	if _, err := b.Build(); err == nil {
		t.Error("unbound label accepted")
	}
}

func TestDoubleBindPanics(t *testing.T) {
	b := New()
	l := b.NewLabel()
	b.Bind(l)
	defer func() {
		if recover() == nil {
			t.Error("double bind did not panic")
		}
	}()
	b.Bind(l)
}

func TestLiFRoundTrips(t *testing.T) {
	b := New()
	r := b.Alloc()
	b.LiF(r, 2.5)
	prog := b.MustBuild()
	if prog[0].Op != isa.LI {
		t.Fatal("LiF must emit LI")
	}
	// 2.5 == 0x4004000000000000
	if uint64(prog[0].Imm) != 0x4004000000000000 {
		t.Errorf("LiF bits = %#x", uint64(prog[0].Imm))
	}
}

func TestForRangeShape(t *testing.T) {
	b := New()
	i := b.Alloc()
	end := b.Alloc()
	body := 0
	b.Li(end, 10)
	b.ForRange(i, 0, end, 1, func() {
		body = b.PC()
		b.Nop()
	})
	b.Halt()
	prog := b.MustBuild()
	// li end; li i; bge i,end,done; nop; addi; j top; halt
	if prog[2].Op != isa.BGE || prog[2].Imm != int64(len(prog)-1) {
		t.Errorf("loop exit branch wrong: %v", prog[2])
	}
	if prog[body].Op != isa.NOP {
		t.Errorf("body not where expected")
	}
	if prog[5].Op != isa.J || prog[5].Imm != 2 {
		t.Errorf("backedge wrong: %v", prog[5])
	}
}

func TestIfElseShape(t *testing.T) {
	b := New()
	a, c := b.Alloc(), b.Alloc()
	b.If("eq", a, c, func() { b.Li(a, 1) }, func() { b.Li(a, 2) })
	b.Halt()
	prog := b.MustBuild()
	// bne a,c,else ; li a,1 ; j end ; li a,2 ; halt
	if prog[0].Op != isa.BNE || prog[0].Imm != 3 {
		t.Errorf("if branch wrong: %v", prog[0])
	}
	if prog[2].Op != isa.J || prog[2].Imm != 4 {
		t.Errorf("then jump wrong: %v", prog[2])
	}
}

func TestPushPop(t *testing.T) {
	b := New()
	r := b.Alloc()
	b.Push(r)
	b.Pop(r)
	prog := b.MustBuild()
	if prog[0].Op != isa.ADDI || prog[0].Rd != isa.RSP || prog[0].Imm != -8 {
		t.Errorf("push prologue wrong: %v", prog[0])
	}
	if prog[1].Op != isa.ST || prog[3].Op != isa.ADDI || prog[3].Imm != 8 {
		t.Errorf("push/pop sequence wrong: %v", prog)
	}
}

// --- HoistLoads ---

func TestHoistLoadsMovesIndependentLoadUp(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.ADDI, Rd: 4, Rs1: 3, Imm: 1},
		{Op: isa.ADDI, Rd: 5, Rs1: 4, Imm: 1},
		{Op: isa.LD, Rd: 6, Rs1: 3, Imm: 8}, // independent of r4,r5 chain
		{Op: isa.HALT},
	}
	out := HoistLoads(prog)
	// The load depends only on r3 (defined at 0); it should land at 1.
	if out[1].Op != isa.LD || out[1].Rd != 6 {
		t.Errorf("load not hoisted: %v", out)
	}
	if out[2].Op != isa.ADDI || out[3].Op != isa.ADDI {
		t.Errorf("ALU order disturbed: %v", out)
	}
}

func TestHoistLoadsRespectsAddressDependence(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.ADDI, Rd: 4, Rs1: 3, Imm: 8},
		{Op: isa.LD, Rd: 6, Rs1: 4}, // address depends on r4
		{Op: isa.HALT},
	}
	out := HoistLoads(prog)
	if out[2].Op != isa.LD {
		t.Errorf("load moved above its address def: %v", out)
	}
}

func TestHoistLoadsStopsAtStores(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.ST, Rs1: 3, Rs2: 0},
		{Op: isa.LD, Rd: 6, Rs1: 3, Imm: 64},
		{Op: isa.HALT},
	}
	out := HoistLoads(prog)
	if out[2].Op != isa.LD {
		t.Errorf("load moved above a store: %v", out)
	}
}

func TestHoistLoadsRespectsWAR(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.ADDI, Rd: 4, Rs1: 6, Imm: 1}, // reads r6
		{Op: isa.LD, Rd: 6, Rs1: 3},           // writes r6: WAR
		{Op: isa.HALT},
	}
	out := HoistLoads(prog)
	if out[2].Op != isa.LD {
		t.Errorf("load moved above a reader of its destination: %v", out)
	}
}

func TestHoistLoadsDoesNotCrossBlocks(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.BEQ, Rs1: 3, Rs2: 0, Imm: 3},
		{Op: isa.NOP},
		{Op: isa.LD, Rd: 6, Rs1: 3}, // branch target: block leader
		{Op: isa.HALT},
	}
	out := HoistLoads(prog)
	if out[3].Op != isa.LD {
		t.Errorf("load crossed a block boundary: %v", out)
	}
	// Branch targets must be untouched.
	if out[1].Imm != 3 {
		t.Errorf("branch target changed: %v", out[1])
	}
}

func TestHoistLoadsLeavesSyncLoadsAlone(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LI, Rd: 3, Imm: 0},
		{Op: isa.ADDI, Rd: 4, Rs1: 3, Imm: 1},
		{Op: isa.LD, Rd: 6, Rs1: 3, Class: isa.ClassAcquire},
		{Op: isa.HALT},
	}
	out := HoistLoads(prog)
	if out[2].Op != isa.LD || out[2].Class != isa.ClassAcquire {
		t.Errorf("sync load moved: %v", out)
	}
}

func TestHoistLoadsIdempotentAndLengthPreserving(t *testing.T) {
	b := New()
	r := b.AllocN(6)
	end := b.Alloc()
	b.Li(end, 4)
	b.ForRange(r[0], 0, end, 1, func() {
		b.Ld(r[1], r[0], 0)
		b.Addi(r[2], r[1], 1)
		b.Ld(r[3], r[0], 8)
		b.Add(r[4], r[2], r[3])
		b.St(r[0], 16, r[4])
	})
	b.Halt()
	prog := b.MustBuild()
	once := HoistLoads(prog)
	twice := HoistLoads(once)
	if len(once) != len(prog) {
		t.Fatalf("pass changed length: %d -> %d", len(prog), len(once))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("pass not idempotent at %d: %v vs %v", i, once[i], twice[i])
		}
	}
	if err := isa.ValidateProgram(once); err != nil {
		t.Fatalf("hoisted program invalid: %v", err)
	}
}
