// Package progb is the program builder the workloads are written
// against: a thin, structured "compiler back end" for the simulator's
// ISA. It provides labels with fixups, a register pool with leak
// checking, emit helpers for every opcode, and small control-flow
// combinators, so benchmark kernels read like three-address code
// instead of hand-numbered assembly.
//
// The paper's benchmarks were PCP/C programs compiled by Cerberus's
// compiler; progb plays that compiler's role (including its
// load-hoisting optimization, in schedule.go).
package progb

import (
	"fmt"
	"math"
	"slices"

	"memsim/internal/isa"
)

// Label is a forward- or backward-referenced branch target.
type Label struct {
	id    int
	pc    int
	bound bool
}

// Builder accumulates a program.
type Builder struct {
	insts     []isa.Inst
	labels    []*Label
	fixups    []fixup
	free      []isa.Reg
	allocated map[isa.Reg]bool
}

type fixup struct {
	pc    int
	label *Label
}

// Reserved registers never handed out by the pool: R0 (zero), RID,
// RNP, RSP, RRet.
var reserved = map[isa.Reg]bool{
	isa.R0:   true,
	isa.RID:  true,
	isa.RNP:  true,
	isa.RSP:  true,
	isa.RRet: true,
}

// New returns an empty builder with a full register pool.
func New() *Builder {
	b := &Builder{allocated: make(map[isa.Reg]bool)}
	b.Reset()
	return b
}

// Reset empties the builder and refills its pool, keeping its arrays and
// labels: a label made before a Reset must not be used after it.
func (b *Builder) Reset() {
	b.insts, b.fixups, b.labels, b.free = b.insts[:0], b.fixups[:0], b.labels[:0], b.free[:0]
	clear(b.allocated)
	// Hand out high registers first so short programs keep low
	// registers free for debugging conventions.
	for r := isa.Reg(isa.NumRegs - 1); r >= 3; r-- {
		if !reserved[r] {
			b.free = append(b.free, r)
		}
	}
}

// Alloc takes a register from the pool.
func (b *Builder) Alloc() isa.Reg {
	if len(b.free) == 0 {
		panic("progb: register pool exhausted")
	}
	r := b.free[len(b.free)-1]
	b.free = b.free[:len(b.free)-1]
	b.allocated[r] = true
	return r
}

// AllocN takes n registers at once.
func (b *Builder) AllocN(n int) []isa.Reg {
	rs := make([]isa.Reg, n)
	for i := range rs {
		rs[i] = b.Alloc()
	}
	return rs
}

// Free returns a register to the pool.
func (b *Builder) Free(rs ...isa.Reg) {
	for _, r := range rs {
		if !b.allocated[r] {
			panic(fmt.Sprintf("progb: freeing unallocated register r%d", r))
		}
		delete(b.allocated, r)
		b.free = append(b.free, r)
	}
}

// InUse returns the number of pool registers currently allocated.
func (b *Builder) InUse() int { return len(b.allocated) }

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.insts) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.insts = append(b.insts, in) }

// NewLabel creates an unbound label.
func (b *Builder) NewLabel() *Label {
	id := len(b.labels)
	b.labels = slices.Grow(b.labels, 1)[:id+1] // a Reset's labels lie past len
	if b.labels[id] == nil {
		b.labels[id] = new(Label)
	}
	*b.labels[id] = Label{id: id}
	return b.labels[id]
}

// Bind points the label at the next instruction.
func (b *Builder) Bind(l *Label) {
	if l.bound {
		panic("progb: label bound twice")
	}
	l.bound = true
	l.pc = len(b.insts)
}

// Here creates and binds a label at the current position.
func (b *Builder) Here() *Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

// branch emits a control transfer to a label, recording a fixup.
func (b *Builder) branch(op isa.Op, rs1, rs2 isa.Reg, rd isa.Reg, l *Label) {
	b.fixups = append(b.fixups, fixup{pc: len(b.insts), label: l})
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Build resolves fixups, validates the program, and returns it in a
// new array. The builder can keep emitting afterwards.
func (b *Builder) Build() ([]isa.Inst, error) {
	return b.AppendProgram(nil)
}

// AppendProgram is Build appending to dst: it returns dst extended by
// the program, or dst unchanged and the error.
func (b *Builder) AppendProgram(dst []isa.Inst) ([]isa.Inst, error) {
	start := len(dst)
	dst = append(dst, b.insts...)
	for _, f := range b.fixups {
		if !f.label.bound {
			return dst[:start], fmt.Errorf("progb: unbound label %d referenced at pc %d", f.label.id, f.pc)
		}
		dst[start+f.pc].Imm = int64(f.label.pc)
	}
	if err := isa.ValidateProgram(dst[start:]); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// MustBuild is Build that panics on error (builder bugs, not input
// errors).
func (b *Builder) MustBuild() []isa.Inst {
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}
	return prog
}

// --- integer ALU ---

func (b *Builder) Li(rd isa.Reg, v int64)   { b.Emit(isa.Inst{Op: isa.LI, Rd: rd, Imm: v}) }
func (b *Builder) LiU(rd isa.Reg, v uint64) { b.Emit(isa.Inst{Op: isa.LI, Rd: rd, Imm: int64(v)}) }

// LiF loads a float64 constant's bit pattern.
func (b *Builder) LiF(rd isa.Reg, v float64) {
	b.Emit(isa.Inst{Op: isa.LI, Rd: rd, Imm: int64(math.Float64bits(v))})
}

func (b *Builder) Mov(rd, rs isa.Reg)   { b.Emit(isa.Inst{Op: isa.MOV, Rd: rd, Rs1: rs}) }
func (b *Builder) Add(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.ADD, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Sub(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.SUB, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Mul(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.MUL, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Div(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.DIV, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Rem(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.REM, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) And(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.AND, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Or(rd, a, c isa.Reg)  { b.Emit(isa.Inst{Op: isa.OR, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Xor(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.XOR, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Slt(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.SLT, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Seq(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.SEQ, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Addi(rd, a isa.Reg, v int64) {
	b.Emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: a, Imm: v})
}
func (b *Builder) Slli(rd, a isa.Reg, v int64) {
	b.Emit(isa.Inst{Op: isa.SLLI, Rd: rd, Rs1: a, Imm: v})
}
func (b *Builder) Srli(rd, a isa.Reg, v int64) {
	b.Emit(isa.Inst{Op: isa.SRLI, Rd: rd, Rs1: a, Imm: v})
}
func (b *Builder) Slti(rd, a isa.Reg, v int64) {
	b.Emit(isa.Inst{Op: isa.SLTI, Rd: rd, Rs1: a, Imm: v})
}

// --- float ---

func (b *Builder) Fadd(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.FADD, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Fsub(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.FSUB, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Fmul(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.FMUL, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Fdiv(rd, a, c isa.Reg) { b.Emit(isa.Inst{Op: isa.FDIV, Rd: rd, Rs1: a, Rs2: c}) }
func (b *Builder) Itof(rd, a isa.Reg)    { b.Emit(isa.Inst{Op: isa.ITOF, Rd: rd, Rs1: a}) }
func (b *Builder) Ftoi(rd, a isa.Reg)    { b.Emit(isa.Inst{Op: isa.FTOI, Rd: rd, Rs1: a}) }

// --- memory ---

func (b *Builder) Ld(rd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.LD, Rd: rd, Rs1: base, Imm: off})
}

// Ldx emits a load with write intent (read-for-ownership).
func (b *Builder) Ldx(rd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.LDX, Rd: rd, Rs1: base, Imm: off})
}
func (b *Builder) LdC(rd, base isa.Reg, off int64, cl isa.Class) {
	b.Emit(isa.Inst{Op: isa.LD, Rd: rd, Rs1: base, Imm: off, Class: cl})
}
func (b *Builder) St(base isa.Reg, off int64, rs isa.Reg) {
	b.Emit(isa.Inst{Op: isa.ST, Rs1: base, Rs2: rs, Imm: off})
}
func (b *Builder) StC(base isa.Reg, off int64, rs isa.Reg, cl isa.Class) {
	b.Emit(isa.Inst{Op: isa.ST, Rs1: base, Rs2: rs, Imm: off, Class: cl})
}
func (b *Builder) Tas(rd, base isa.Reg, off int64, cl isa.Class) {
	b.Emit(isa.Inst{Op: isa.TAS, Rd: rd, Rs1: base, Imm: off, Class: cl})
}
func (b *Builder) Fence(cl isa.Class) { b.Emit(isa.Inst{Op: isa.FENCE, Class: cl}) }

// --- control ---

func (b *Builder) Beq(a, c isa.Reg, l *Label) { b.branch(isa.BEQ, a, c, 0, l) }
func (b *Builder) Bne(a, c isa.Reg, l *Label) { b.branch(isa.BNE, a, c, 0, l) }
func (b *Builder) Blt(a, c isa.Reg, l *Label) { b.branch(isa.BLT, a, c, 0, l) }
func (b *Builder) Bge(a, c isa.Reg, l *Label) { b.branch(isa.BGE, a, c, 0, l) }
func (b *Builder) Jmp(l *Label)               { b.branch(isa.J, 0, 0, 0, l) }
func (b *Builder) Jal(rd isa.Reg, l *Label)   { b.branch(isa.JAL, 0, 0, rd, l) }
func (b *Builder) Jr(rs isa.Reg)              { b.Emit(isa.Inst{Op: isa.JR, Rs1: rs}) }
func (b *Builder) Halt()                      { b.Emit(isa.Inst{Op: isa.HALT}) }
func (b *Builder) Nop()                       { b.Emit(isa.Inst{Op: isa.NOP}) }

// --- structured control flow ---

// ForRange emits a loop with induction register i running start,
// start+step, ... while i < end (signed). body may use but not free i.
func (b *Builder) ForRange(i isa.Reg, start int64, end isa.Reg, step int64, body func()) {
	b.Li(i, start)
	top := b.NewLabel()
	done := b.NewLabel()
	b.Bind(top)
	b.Bge(i, end, done)
	body()
	b.Addi(i, i, step)
	b.Jmp(top)
	b.Bind(done)
}

// ForRangeReg is ForRange with a register start value.
func (b *Builder) ForRangeReg(i, start, end isa.Reg, step int64, body func()) {
	b.Mov(i, start)
	top := b.NewLabel()
	done := b.NewLabel()
	b.Bind(top)
	b.Bge(i, end, done)
	body()
	b.Addi(i, i, step)
	b.Jmp(top)
	b.Bind(done)
}

// If emits: if a <cond> c then then() else else_(). cond is one of
// "eq", "ne", "lt", "ge". else_ may be nil.
func (b *Builder) If(cond string, a, c isa.Reg, then func(), els func()) {
	elseL := b.NewLabel()
	endL := b.NewLabel()
	// Branch to else on the *negation* of cond.
	switch cond {
	case "eq":
		b.Bne(a, c, elseL)
	case "ne":
		b.Beq(a, c, elseL)
	case "lt":
		b.Bge(a, c, elseL)
	case "ge":
		b.Blt(a, c, elseL)
	default:
		panic(fmt.Sprintf("progb: unknown condition %q", cond))
	}
	then()
	if els != nil {
		b.Jmp(endL)
	}
	b.Bind(elseL)
	if els != nil {
		els()
		b.Bind(endL)
	} else {
		// endL unused; bind it anyway to keep it valid.
		b.Bind(endL)
	}
}

// While emits a loop: cond() must emit code that branches to the
// provided exit label when the loop should stop.
func (b *Builder) While(cond func(exit *Label), body func()) {
	top := b.NewLabel()
	exit := b.NewLabel()
	b.Bind(top)
	cond(exit)
	body()
	b.Jmp(top)
	b.Bind(exit)
}

// --- private stack helpers (for spills and calls) ---

// Push spills a register to the private stack.
func (b *Builder) Push(r isa.Reg) {
	b.Addi(isa.RSP, isa.RSP, -8)
	b.St(isa.RSP, 0, r)
}

// Pop restores a register from the private stack.
func (b *Builder) Pop(r isa.Reg) {
	b.Ld(r, isa.RSP, 0)
	b.Addi(isa.RSP, isa.RSP, 8)
}
