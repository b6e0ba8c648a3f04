package litmus

import (
	"fmt"

	"memsim/internal/isa"
)

// Code generation for declarative tests. Each abstract thread becomes
// a short program, emitted as instructions (asm.Disassemble renders it
// where a replay record is read as text):
//
//	nop ×stagger            ; per-thread start skew
//	li  r8+loc, <addr>      ; one address register per location
//	ld  r4+k, 0(r8+loc)     ; k-th load of the thread
//	li  r3, <val>           ; store value scratch
//	st  r3, 0(r8+loc)
//	fence !sync
//	halt
//
// Observed loads bind r4 upward; address registers sit at r8 upward;
// r3 is store-value scratch (safe: store operands are captured at
// issue, and no generated load writes r3).
const (
	storeReg isa.Reg = 3
	obsBase  isa.Reg = 4
	addrBase isa.Reg = 8
	warmBase isa.Reg = 12

	// locStride spaces locations 72 bytes apart: distinct cache lines
	// at every line size the driver draws (≤ 64B), and — because 72
	// is an odd multiple of the word size — line indexes of different
	// parity, so locations spread across home memory modules
	// (ModuleFor is lineIndex mod procs). A power-of-two stride would
	// home every location on module 0, serializing their requests in
	// FIFO order and hiding real reorderings.
	locStride = 72
	locBase   = 512

	maxStagger = 7 // the largest start skew drawVariation draws
)

// Layout places the test's abstract locations in shared memory. The
// driver draws a per-run base offset so the line-index pattern (and
// with it the home-module assignment) varies across runs.
type Layout struct {
	Base uint64 // byte address of location 0 (8-byte aligned)

	// Stride is the byte distance between consecutive locations; 0
	// means the default locStride (72: always distinct cache lines).
	// The difftest generator sets 8 to pack locations into adjacent
	// words — false sharing: distinct abstract locations land on one
	// cache line at line sizes >= 16, so the coherence protocol
	// bounces a line that both threads think they own privately.
	Stride uint64 `json:"stride,omitempty"`
}

// DefaultLayout is the unperturbed placement.
var DefaultLayout = Layout{Base: locBase}

// Addr is the shared byte address of location loc.
func (l Layout) Addr(loc int) uint64 {
	s := l.Stride
	if s == 0 {
		s = locStride
	}
	return l.Base + uint64(loc)*s
}

// class maps an annotation to the ISA access class.
func (a Ann) class() isa.Class {
	switch a {
	case AnnAcquire:
		return isa.ClassAcquire
	case AnnRelease:
		return isa.ClassRelease
	case AnnSync:
		return isa.ClassSync
	}
	return isa.ClassPlain
}

// emitThread appends one thread's instructions to code. warm is a
// bitmask over location indexes: each loaded location with its bit
// set is first fetched into the cache, followed by an ALU instruction
// reading the warmup sinks — a register-interlock barrier
// (consistency-invisible) that holds the thread until the warmup
// fills have landed. A warmed test load then *hits* and binds
// immediately, which is what lets a relaxed machine bind it while an
// earlier store's ownership fetch is still in flight (store-load
// reordering). Warming only a *subset* of a thread's loads mixes
// hit-early and miss-late binds, which is what reorders two loads of
// the same thread (load buffering, IRIW). Cold locations instead
// explore late out-of-order binding of pending misses.
func (t *Test) emitThread(code []isa.Inst, lay Layout, th Thread, stagger int, warm uint64) []isa.Inst {
	for i := 0; i < stagger; i++ {
		code = append(code, isa.Inst{Op: isa.NOP})
	}
	var used, loaded uint64 // bitmasks over location indexes, like warm
	for _, op := range th {
		if op.Kind == OpFence {
			continue
		}
		if op.Loc < 0 || op.Loc >= t.NLocs {
			panic(fmt.Sprintf("litmus: %s: op on location %d, test has %d", t.Name, op.Loc, t.NLocs))
		}
		used |= 1 << uint(op.Loc)
		if op.Kind == OpLoad {
			loaded |= 1 << uint(op.Loc)
		}
	}
	warmed := loaded & warm
	for loc := 0; loc < t.NLocs; loc++ {
		if used&(1<<uint(loc)) != 0 {
			code = append(code, isa.Inst{Op: isa.LI, Rd: addrBase + isa.Reg(loc), Imm: int64(lay.Addr(loc))})
		}
	}
	for loc := 0; loc < t.NLocs; loc++ {
		if warmed&(1<<uint(loc)) != 0 {
			code = append(code, isa.Inst{Op: isa.LD, Rd: warmBase + isa.Reg(loc), Rs1: addrBase + isa.Reg(loc)})
		}
	}
	for loc := 0; loc < t.NLocs; loc++ {
		if warmed&(1<<uint(loc)) != 0 {
			// Interlock: stalls until the warmup fill arrives.
			sink := warmBase + isa.Reg(loc)
			code = append(code, isa.Inst{Op: isa.ADD, Rd: storeReg, Rs1: sink, Rs2: sink})
		}
	}
	k := 0
	for _, op := range th {
		switch op.Kind {
		case OpLoad:
			code = append(code, isa.Inst{Op: isa.LD, Rd: obsBase + isa.Reg(k), Rs1: addrBase + isa.Reg(op.Loc), Class: op.Ann.class()})
			k++
		case OpStore:
			code = append(code,
				isa.Inst{Op: isa.LI, Rd: storeReg, Imm: int64(op.Val)},
				isa.Inst{Op: isa.ST, Rs1: addrBase + isa.Reg(op.Loc), Rs2: storeReg, Class: op.Ann.class()})
		case OpFence:
			code = append(code, isa.Inst{Op: isa.FENCE, Class: isa.ClassSync})
		}
	}
	return append(code, isa.Inst{Op: isa.HALT})
}

// Programs generates the test's per-thread programs against a location
// layout. stagger gives each thread a start-skew nop count; warm gives
// each thread a prefetch bitmask over locations (both len ==
// NumThreads). The programs are new on every call, the caller's to
// keep, and share one array sized for the longest a thread can come to.
func (t *Test) Programs(lay Layout, stagger []int, warm []uint64) ([][]isa.Inst, []LoadRef, error) {
	_, progs, refs, err := t.emit(nil, nil, nil, lay, stagger, warm)
	return progs, refs, err
}

// emit is Programs into the arrays of code, progs and refs, which it
// overwrites and returns, grown where they were short; code is the
// array the programs share, sized for the largest stagger drawn so
// that a record's array grows once per test.
func (t *Test) emit(code []isa.Inst, progs [][]isa.Inst, refs []LoadRef, lay Layout, stagger []int, warm []uint64) ([]isa.Inst, [][]isa.Inst, []LoadRef, error) {
	if t.Threads == nil {
		return t.Build(code, progs, refs, lay, stagger)
	}
	n := 0
	for ti, th := range t.Threads {
		n += max(stagger[ti], maxStagger) + 3*t.NLocs + 2*len(th) + 1
	}
	code, progs = resize(code, n)[:0], resize(progs, len(t.Threads))
	for ti, th := range t.Threads {
		start := len(code)
		code = t.emitThread(code, lay, th, stagger[ti], warm[ti])
		progs[ti] = code[start:len(code):len(code)]
	}
	return code, progs, t.appendLoadRefs(refs[:0]), nil
}

// resize returns s at length n: in s's array when that is long enough,
// else in a new one, never nil (a record encodes nil as null).
func resize[E any](s []E, n int) []E {
	if s == nil || cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
