// Package isa defines the instruction set of the simulated RISC
// processor: a generic three-operand load/store architecture in the
// spirit of the Ridge 32 CPU the paper's Cerberus simulator modeled.
//
// The machine has 32 general-purpose 64-bit registers. Register 0 is
// hardwired to zero. Floating-point operations interpret register bits
// as IEEE-754 float64 values, so no separate FP register file is needed.
// Memory is byte-addressed; all data accesses move one aligned 8-byte
// word. Addresses at or above PrivBase refer to the processor's private
// local memory (never cached, never on the network); addresses below it
// are shared and go through the cache hierarchy.
//
// Memory operations carry an access Class. ClassPlain is an ordinary
// data access. ClassAcquire, ClassRelease and ClassSync mark
// synchronization operations that are visible to the hardware; how each
// consistency model interprets them is defined in package consistency.
package isa

import "fmt"

// Reg names one of the 32 general-purpose registers. R0 reads as zero
// and ignores writes.
type Reg uint8

// NumRegs is the size of the register file.
const NumRegs = 32

// Conventional register assignments used by the program builder and the
// workloads. Only R0's behavior is architectural; the rest are software
// convention, set up by the machine at reset.
const (
	R0   Reg = 0  // hardwired zero
	RID  Reg = 1  // processor id at reset
	RNP  Reg = 2  // number of processors at reset
	RSP  Reg = 30 // private-memory stack pointer at reset
	RRet Reg = 31 // link register for JAL
)

// PrivBase is the first address of the processor-private address space.
// Shared addresses are below it, private addresses at or above it.
const PrivBase uint64 = 1 << 40

// WordBytes is the size of every data access.
const WordBytes = 8

// Op is an operation code.
type Op uint8

// Operation codes. Groupings matter: predicates below (IsMem, IsBranch,
// ...) are defined over contiguous ranges.
const (
	NOP Op = iota
	HALT

	// Integer register-register ALU: Rd = Rs1 op Rs2.
	ADD
	SUB
	MUL
	DIV // signed; divide by zero yields 0 (architectural choice, tested)
	REM // signed; mod by zero yields 0
	AND
	OR
	XOR
	SLL // shift left logical by Rs2&63
	SRL
	SRA
	SLT  // set if signed less-than
	SLTU // set if unsigned less-than
	SEQ  // set if equal

	// Integer register-immediate ALU: Rd = Rs1 op Imm.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI

	// Constants and moves.
	LI  // Rd = Imm (full 64-bit immediate)
	MOV // Rd = Rs1

	// Floating point (float64 bit patterns in integer registers).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FSLT // set int 1 if Rs1 < Rs2 as float64
	FSLE // set int 1 if Rs1 <= Rs2
	ITOF // Rd = float64(int64(Rs1))
	FTOI // Rd = int64(float64(Rs1))

	// Memory. Effective address is Rs1 + Imm.
	LD  // Rd = MEM[Rs1+Imm]
	LDX // Rd = MEM[Rs1+Imm], fetching the line with ownership
	ST  // MEM[Rs1+Imm] = Rs2
	TAS // Rd = MEM[Rs1+Imm]; MEM[Rs1+Imm] = 1 (atomic test-and-set)

	// FENCE is a stand-alone synchronization point (the paper's SYNC
	// instruction); it touches no memory location itself.
	FENCE

	// Control transfer. Branch/jump targets are absolute instruction
	// indices held in Imm.
	BEQ // if Rs1 == Rs2 goto Imm
	BNE
	BLT // signed
	BGE // signed
	J   // goto Imm
	JAL // Rd = next pc; goto Imm
	JR  // goto Rs1

	numOps // sentinel; keep last
)

// Class categorizes a memory operation for the consistency hardware.
type Class uint8

const (
	ClassPlain   Class = iota // ordinary data access
	ClassAcquire              // acquire synchronization (lock, flag spin)
	ClassRelease              // release synchronization (unlock, flag set)
	ClassSync                 // plain synchronization point (weak ordering)
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassPlain:
		return "plain"
	case ClassAcquire:
		return "acquire"
	case ClassRelease:
		return "release"
	case ClassSync:
		return "sync"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Inst is one decoded instruction. Branch and jump targets are absolute
// instruction indices stored in Imm.
type Inst struct {
	Op    Op
	Rd    Reg
	Rs1   Reg
	Rs2   Reg
	Imm   int64
	Class Class // meaningful for LD, ST, TAS, FENCE only
}

// Operand flags: which of Rd, Rs1, Rs2 and Imm an opcode uses.
const (
	fRd uint8 = 1 << iota
	fRs1
	fRs2
	fImm
	dss = fRd | fRs1 | fRs2 // shapes: d a destination, s a source, i an immediate
	dsi = fRd | fRs1 | fImm
	ds  = fRd | fRs1
	ssi = fRs1 | fRs2 | fImm
)

// opInfo captures per-opcode metadata for predicates and disassembly.
type opInfo struct {
	name  string
	flags uint8
}

// opTable has an entry for every byte value, so each predicate below is
// one load with no bounds check (the processor asks them once per issued
// instruction); an undefined opcode has no name and no flags.
var opTable = [256]opInfo{
	NOP:   {"nop", 0},
	HALT:  {"halt", 0},
	ADD:   {"add", dss},
	SUB:   {"sub", dss},
	MUL:   {"mul", dss},
	DIV:   {"div", dss},
	REM:   {"rem", dss},
	AND:   {"and", dss},
	OR:    {"or", dss},
	XOR:   {"xor", dss},
	SLL:   {"sll", dss},
	SRL:   {"srl", dss},
	SRA:   {"sra", dss},
	SLT:   {"slt", dss},
	SLTU:  {"sltu", dss},
	SEQ:   {"seq", dss},
	ADDI:  {"addi", dsi},
	ANDI:  {"andi", dsi},
	ORI:   {"ori", dsi},
	XORI:  {"xori", dsi},
	SLLI:  {"slli", dsi},
	SRLI:  {"srli", dsi},
	SRAI:  {"srai", dsi},
	SLTI:  {"slti", dsi},
	LI:    {"li", fRd | fImm},
	MOV:   {"mov", ds},
	FADD:  {"fadd", dss},
	FSUB:  {"fsub", dss},
	FMUL:  {"fmul", dss},
	FDIV:  {"fdiv", dss},
	FNEG:  {"fneg", ds},
	FABS:  {"fabs", ds},
	FSLT:  {"fslt", dss},
	FSLE:  {"fsle", dss},
	ITOF:  {"itof", ds},
	FTOI:  {"ftoi", ds},
	LD:    {"ld", dsi},
	LDX:   {"ldx", dsi},
	ST:    {"st", ssi},
	TAS:   {"tas", dsi},
	FENCE: {"fence", 0},
	BEQ:   {"beq", ssi},
	BNE:   {"bne", ssi},
	BLT:   {"blt", ssi},
	BGE:   {"bge", ssi},
	J:     {"j", fImm},
	JAL:   {"jal", fRd | fImm},
	JR:    {"jr", fRs1},
}

// Valid reports whether op is a defined operation code.
func (op Op) Valid() bool { return opTable[op].name != "" }

func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// IsMem reports whether op accesses data memory (LD, ST or TAS).
func (op Op) IsMem() bool { return op == LD || op == LDX || op == ST || op == TAS }

// IsLoad reports whether op reads data memory into a register.
func (op Op) IsLoad() bool { return op == LD || op == LDX || op == TAS }

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool { return op == ST || op == TAS }

// IsBranch reports whether op is a conditional branch or jump, i.e.
// pays the branch delay.
func (op Op) IsBranch() bool { return op >= BEQ && op <= JR }

// IsALU reports whether op is a register-only computation (including
// constants and moves) with single-cycle latency.
func (op Op) IsALU() bool { return op >= ADD && op <= FTOI }

// WritesRd reports whether op writes its Rd operand.
func (op Op) WritesRd() bool { return opTable[op].flags&fRd != 0 }

// ReadsRs1 reports whether op reads its Rs1 operand.
func (op Op) ReadsRs1() bool { return opTable[op].flags&fRs1 != 0 }

// ReadsRs2 reports whether op reads its Rs2 operand.
func (op Op) ReadsRs2() bool { return opTable[op].flags&fRs2 != 0 }

// HasImm reports whether op uses its immediate operand.
func (op Op) HasImm() bool { return opTable[op].flags&fImm != 0 }

// IsShared reports whether a memory access to addr goes to the shared
// address space (through cache and network) rather than private memory.
func IsShared(addr uint64) bool { return addr < PrivBase }

// String renders the instruction in assembler syntax, e.g.
// "ld r5, 16(r3) !acquire".
func (in Inst) String() string {
	s := in.Op.String()
	sep := " "
	switch in.Op {
	case LD, LDX, TAS:
		s += fmt.Sprintf(" r%d, %d(r%d)", in.Rd, in.Imm, in.Rs1)
	case ST:
		s += fmt.Sprintf(" r%d, %d(r%d)", in.Rs2, in.Imm, in.Rs1)
	default:
		if in.Op.WritesRd() {
			s += fmt.Sprintf("%sr%d", sep, in.Rd)
			sep = ", "
		}
		if in.Op.ReadsRs1() {
			s += fmt.Sprintf("%sr%d", sep, in.Rs1)
			sep = ", "
		}
		if in.Op.ReadsRs2() {
			s += fmt.Sprintf("%sr%d", sep, in.Rs2)
			sep = ", "
		}
		if in.Op.HasImm() {
			s += fmt.Sprintf("%s%d", sep, in.Imm)
		}
	}
	if in.Class != ClassPlain && (in.Op.IsMem() || in.Op == FENCE) {
		s += " !" + in.Class.String()
	}
	return s
}

// Validate checks structural well-formedness: a known opcode, in-range
// registers, classes only on memory/fence operations, and in-range
// branch targets given program length n.
func (in Inst) Validate(n int) error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return fmt.Errorf("isa: %s: register out of range", in)
	}
	if in.Class >= numClasses {
		return fmt.Errorf("isa: %s: invalid class %d", in, uint8(in.Class))
	}
	if in.Class != ClassPlain && !in.Op.IsMem() && in.Op != FENCE {
		return fmt.Errorf("isa: %s: class on non-memory op", in)
	}
	if in.Op.IsBranch() && in.Op != JR {
		if in.Imm < 0 || in.Imm >= int64(n) {
			return fmt.Errorf("isa: %s: branch target %d out of program [0,%d)", in, in.Imm, n)
		}
	}
	return nil
}

// ValidateProgram checks every instruction of a program.
func ValidateProgram(prog []Inst) error {
	for pc, in := range prog {
		if err := in.Validate(len(prog)); err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	return nil
}
