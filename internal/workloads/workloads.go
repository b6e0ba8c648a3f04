// Package workloads implements the paper's four benchmark programs —
// Gauss, Qsort, Relax and Psim (§3.3) — as ISA programs generated with
// the progb builder, plus the synchronization library (test-and-set
// spinlocks and sense-reversing barriers) they share.
//
// Each constructor returns a Workload: per-processor programs, the
// shared-memory image size, a Setup function that initializes the
// image, and a Validate function that checks the computation's result
// after a run. Validation is model-independent: every consistency
// model must produce the same answer (the programs are data-race-free
// with hardware-visible synchronization).
//
// Problem sizes are parameters; the experiments package picks scaled
// defaults that preserve each benchmark's relationship to the cache
// (see DESIGN.md §2) and offers the paper's original sizes behind a
// flag.
package workloads

import (
	"fmt"

	"memsim/internal/isa"
)

// Workload is one runnable benchmark instance.
type Workload struct {
	Name        string
	Procs       int
	Programs    [][]isa.Inst
	SharedWords int
	// Setup initializes the shared image (indexed in words).
	Setup func(mem []uint64)
	// Validate checks the result after a run. A reference result is
	// computed by the first call and kept for the later ones, which may
	// come from any goroutine.
	Validate func(mem []uint64) error
}

// Alloc is a bump allocator for laying out shared memory.
type Alloc struct{ next uint64 }

// NewAlloc starts allocation at a 64-byte-aligned nonzero base.
func NewAlloc() *Alloc { return &Alloc{next: 64} }

// Bytes reserves n bytes aligned to align (a power of two) and returns
// the byte address.
func (a *Alloc) Bytes(n, align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("workloads: alignment %d not a power of two", align))
	}
	a.next = (a.next + align - 1) &^ (align - 1)
	addr := a.next
	a.next += n
	return addr
}

// Words reserves n 8-byte words (8-byte aligned).
func (a *Alloc) Words(n int) uint64 { return a.Bytes(uint64(n)*8, 8) }

// Line reserves one word on its own 64-byte line (padding to the next
// line), for synchronization variables that must not false-share.
func (a *Alloc) Line() uint64 { return a.Bytes(64, 64) }

// WordsUsed returns the image size in words needed so far (rounded up
// to a line).
func (a *Alloc) WordsUsed() int { return int((a.next + 63) &^ 63 / 8) }

// sameProgram builds the SPMD program table (all processors run prog).
func sameProgram(procs int, prog []isa.Inst) [][]isa.Inst {
	ps := make([][]isa.Inst, procs)
	ps[0] = prog
	for i := 1; i < procs; i++ {
		ps[i] = prog
	}
	return ps
}

// lcg is the deterministic pseudo-random generator used by workload
// Setup functions (and mirrored in validation). Same constants as
// Numerical Recipes' ranqd1.
type lcg struct{ state uint64 }

func newLCG(seed int64) *lcg { return &lcg{state: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *lcg) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

// intn returns a value in [0, n).
func (r *lcg) intn(n int) int {
	return int((r.next() >> 33) % uint64(n))
}

// float1 returns a value in [0, 1).
func (r *lcg) float1() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
