package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                            Op
		mem, load, store, branch, alu bool
	}{
		{NOP, false, false, false, false, false},
		{HALT, false, false, false, false, false},
		{ADD, false, false, false, false, true},
		{SLTU, false, false, false, false, true},
		{ADDI, false, false, false, false, true},
		{LI, false, false, false, false, true},
		{MOV, false, false, false, false, true},
		{FADD, false, false, false, false, true},
		{FTOI, false, false, false, false, true},
		{LD, true, true, false, false, false},
		{ST, true, false, true, false, false},
		{TAS, true, true, true, false, false},
		{FENCE, false, false, false, false, false},
		{BEQ, false, false, false, true, false},
		{BGE, false, false, false, true, false},
		{J, false, false, false, true, false},
		{JAL, false, false, false, true, false},
		{JR, false, false, false, true, false},
	}
	for _, c := range cases {
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%s.IsMem = %v, want %v", c.op, got, c.mem)
		}
		if got := c.op.IsLoad(); got != c.load {
			t.Errorf("%s.IsLoad = %v, want %v", c.op, got, c.load)
		}
		if got := c.op.IsStore(); got != c.store {
			t.Errorf("%s.IsStore = %v, want %v", c.op, got, c.store)
		}
		if got := c.op.IsBranch(); got != c.branch {
			t.Errorf("%s.IsBranch = %v, want %v", c.op, got, c.branch)
		}
		if got := c.op.IsALU(); got != c.alu {
			t.Errorf("%s.IsALU = %v, want %v", c.op, got, c.alu)
		}
	}
}

// TestOpFlagTable holds every byte value's operand predicates to the
// shapes written out here (d: writes Rd, 1: reads Rs1, 2: reads Rs2,
// i: uses Imm), and the IsALU, IsBranch and IsMem ranges to a partition
// of the valid opcodes less NOP, HALT and FENCE.
func TestOpFlagTable(t *testing.T) {
	shapes := map[Op]string{
		NOP: "", HALT: "", FENCE: "",
		ADD: "d12", SUB: "d12", MUL: "d12", DIV: "d12", REM: "d12", AND: "d12", OR: "d12", XOR: "d12",
		SLL: "d12", SRL: "d12", SRA: "d12", SLT: "d12", SLTU: "d12", SEQ: "d12",
		ADDI: "d1i", ANDI: "d1i", ORI: "d1i", XORI: "d1i", SLLI: "d1i", SRLI: "d1i", SRAI: "d1i", SLTI: "d1i",
		LI: "di", MOV: "d1",
		FADD: "d12", FSUB: "d12", FMUL: "d12", FDIV: "d12", FNEG: "d1", FABS: "d1", FSLT: "d12", FSLE: "d12",
		ITOF: "d1", FTOI: "d1",
		LD: "d1i", LDX: "d1i", ST: "12i", TAS: "d1i",
		BEQ: "12i", BNE: "12i", BLT: "12i", BGE: "12i", J: "i", JAL: "di", JR: "1",
	}
	if len(shapes) != int(numOps) {
		t.Fatalf("the test lists %d opcodes, the ISA defines %d", len(shapes), numOps)
	}
	for i := 0; i < 256; i++ {
		op := Op(i)
		shape, valid := shapes[op]
		has := func(c string) bool { return strings.Contains(shape, c) }
		if op.Valid() != valid || op.WritesRd() != has("d") || op.ReadsRs1() != has("1") ||
			op.ReadsRs2() != has("2") || op.HasImm() != has("i") {
			t.Errorf("op %d (%s): valid=%v rd=%v rs1=%v rs2=%v imm=%v, want valid=%v shape %q", i, op,
				op.Valid(), op.WritesRd(), op.ReadsRs1(), op.ReadsRs2(), op.HasImm(), valid, shape)
		}
		classes := 0
		for _, in := range []bool{op.IsALU(), op.IsBranch(), op.IsMem()} {
			if in {
				classes++
			}
		}
		want := 0
		if valid && op != NOP && op != HALT && op != FENCE {
			want = 1
		}
		if classes != want {
			t.Errorf("op %d (%s) is in %d of the ALU, branch and memory ranges, want %d", i, op, classes, want)
		}
	}
}

func TestEveryOpHasAName(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if !op.Valid() {
			t.Errorf("op %d has no table entry", op)
		}
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %d has no name", op)
		}
	}
	if Op(numOps).Valid() {
		t.Error("sentinel op reported valid")
	}
}

func TestIsShared(t *testing.T) {
	if !IsShared(0) || !IsShared(PrivBase-8) {
		t.Error("low addresses should be shared")
	}
	if IsShared(PrivBase) || IsShared(PrivBase+1024) {
		t.Error("high addresses should be private")
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: NOP}, "nop"},
		{Inst{Op: ADD, Rd: 3, Rs1: 1, Rs2: 2}, "add r3, r1, r2"},
		{Inst{Op: ADDI, Rd: 3, Rs1: 1, Imm: -4}, "addi r3, r1, -4"},
		{Inst{Op: LI, Rd: 7, Imm: 99}, "li r7, 99"},
		{Inst{Op: LD, Rd: 5, Rs1: 3, Imm: 16}, "ld r5, 16(r3)"},
		{Inst{Op: LD, Rd: 5, Rs1: 3, Imm: 16, Class: ClassAcquire}, "ld r5, 16(r3) !acquire"},
		{Inst{Op: ST, Rs2: 4, Rs1: 3, Imm: 8, Class: ClassRelease}, "st r4, 8(r3) !release"},
		{Inst{Op: TAS, Rd: 2, Rs1: 9, Class: ClassSync}, "tas r2, 0(r9) !sync"},
		{Inst{Op: FENCE, Class: ClassSync}, "fence !sync"},
		{Inst{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 12}, "beq r1, r2, 12"},
		{Inst{Op: J, Imm: 3}, "j 3"},
		{Inst{Op: JAL, Rd: 31, Imm: 3}, "jal r31, 3"},
		{Inst{Op: JR, Rs1: 31}, "jr r31"},
		{Inst{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Inst{
		{Op: LI, Rd: 1, Imm: 5},
		{Op: BEQ, Rs1: 1, Rs2: 0, Imm: 0},
		{Op: HALT},
	}
	if err := ValidateProgram(good); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := []struct {
		name string
		in   Inst
	}{
		{"bad op", Inst{Op: numOps}},
		{"bad reg", Inst{Op: ADD, Rd: 32}},
		{"bad class value", Inst{Op: LD, Class: numClasses}},
		{"class on alu", Inst{Op: ADD, Class: ClassSync}},
		{"branch out of range", Inst{Op: J, Imm: 99}},
		{"branch negative", Inst{Op: BNE, Imm: -1}},
	}
	for _, c := range bad {
		if err := c.in.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.in)
		}
	}
}

func TestJRTargetNotRangeChecked(t *testing.T) {
	in := Inst{Op: JR, Rs1: 31, Imm: 12345}
	if err := in.Validate(1); err != nil {
		t.Errorf("JR should not range-check Imm: %v", err)
	}
}

func randInst(rng *rand.Rand) Inst {
	for {
		in := Inst{
			Op:  Op(rng.Intn(int(numOps))),
			Rd:  Reg(rng.Intn(NumRegs)),
			Rs1: Reg(rng.Intn(NumRegs)),
			Rs2: Reg(rng.Intn(NumRegs)),
			Imm: rng.Int63() - rng.Int63(),
		}
		if in.Op.IsMem() || in.Op == FENCE {
			in.Class = Class(rng.Intn(int(numClasses)))
		}
		return in
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			in := randInst(rng)
			var buf [InstBytes]byte
			in.Encode(buf[:])
			got, err := Decode(buf[:])
			if err != nil {
				t.Logf("decode error: %v", err)
				return false
			}
			if got != in {
				t.Logf("round trip: got %+v want %+v", got, in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var buf [InstBytes]byte
	buf[0] = byte(numOps) // invalid opcode
	if _, err := Decode(buf[:]); err == nil {
		t.Error("invalid opcode accepted")
	}
	buf[0] = byte(ADD)
	buf[1] = 200 // register out of range
	if _, err := Decode(buf[:]); err == nil {
		t.Error("out-of-range register accepted")
	}
	if _, err := Decode(buf[:4]); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := make([]Inst, 200)
	for i := range prog {
		prog[i] = randInst(rng)
	}
	buf := EncodeProgram(prog)
	got, err := DecodeProgram(buf)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if len(got) != len(prog) {
		t.Fatalf("length %d, want %d", len(got), len(prog))
	}
	for i := range prog {
		if got[i] != prog[i] {
			t.Fatalf("instruction %d: got %+v want %+v", i, got[i], prog[i])
		}
	}
	if _, err := DecodeProgram(buf[:len(buf)-1]); err == nil {
		t.Error("odd-length program accepted")
	}
}
