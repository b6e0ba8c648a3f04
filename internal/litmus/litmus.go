// Package litmus is the conformance harness for the memory models: a
// library of classic litmus tests (store buffering, message passing,
// load buffering, IRIW, coherence shapes, and a synclib-built lock
// test), one definition of which outcomes each model allows, and a
// perturbation driver that runs the generated programs on the real
// machine under every model and checks each observed outcome against
// the model's allowed set.
//
// The allowed set is derived, never written down: the engine
// (engine.go) interprets a test's abstract operations under the
// model's consistency.Spec, relaxing exactly the program-order edges
// Spec.Relaxations says the hardware may relax (so load-buffering
// reordering needs non-blocking loads, and bWO1 does not get it).
// Anything outside that set is a violation: the hardware reordered
// where its contract says it must not. The exhaustive SC-interleaving
// oracle (oracle.go) defines nothing; it is the independent reference
// the engine is checked against. Run is the one seeded check loop;
// the differential tester and the model comparator call it on
// programs they synthesize (SynthTest).
package litmus

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/progb"
	"memsim/internal/workloads"
)

// OpKind is the kind of one abstract litmus operation.
type OpKind int

const (
	OpLoad OpKind = iota
	OpStore
	OpFence
)

// Ann is the synchronization annotation carried by an operation,
// mapped to the ISA access classes at code generation.
type Ann int

const (
	AnnPlain Ann = iota
	AnnAcquire
	AnnRelease
	AnnSync
)

// Op is one abstract operation of a litmus thread.
type Op struct {
	Kind OpKind
	Loc  int    // location index (loads and stores)
	Val  uint64 // value written (stores)
	Ann  Ann
}

// Thread is one thread's program-ordered operation list.
type Thread []Op

// Shorthand constructors keep the library readable.
func ld(loc int) Op           { return Op{Kind: OpLoad, Loc: loc} }
func ldAcq(loc int) Op        { return Op{Kind: OpLoad, Loc: loc, Ann: AnnAcquire} }
func st(loc int, v uint64) Op { return Op{Kind: OpStore, Loc: loc, Val: v} }
func stRel(loc int, v uint64) Op {
	return Op{Kind: OpStore, Loc: loc, Val: v, Ann: AnnRelease}
}
func fence() Op { return Op{Kind: OpFence, Ann: AnnSync} }

// Outcome is one observed (or enumerated) result of a test: the value
// each observed load returned, in canonical order (threads in index
// order, loads in program order within a thread), and the final
// memory value of each location.
type Outcome struct {
	Loads []uint64
	Mem   []uint64
}

// LoadRef names an observed load: which processor's register holds
// its value after the run.
type LoadRef struct {
	Thread int     `json:"thread"`
	Reg    isa.Reg `json:"reg"`
}

// Test is one litmus test. Most tests are declarative (Threads set):
// programs are generated from the abstract ops and each model's
// allowed set is derived from them by the engine. A custom test
// (Build set) supplies its own programs and one explicit outcome set
// that holds on every model — used for shapes with no abstract ops to
// interpret, like spin-lock critical sections.
type Test struct {
	Name     string
	Doc      string
	NLocs    int
	LocNames []string
	Threads  []Thread

	// Stride overrides the layout's location stride (0 = default 72,
	// distinct cache lines). The difftest generator sets 8 on its
	// false-sharing programs so locations share a line.
	Stride uint64

	// Custom-test fields (mutually exclusive with Threads). Build has
	// emit's contract: it overwrites and returns the arrays it is given.
	NThreads int
	Build    func(code []isa.Inst, progs [][]isa.Inst, refs []LoadRef, lay Layout, stagger []int) ([]isa.Inst, [][]isa.Inst, []LoadRef, error)
	SCSet    []Outcome
}

// NumThreads returns how many processors the test occupies.
func (t *Test) NumThreads() int {
	if t.Threads != nil {
		return len(t.Threads)
	}
	return t.NThreads
}

// locName returns the display name of a location index.
func (t *Test) locName(i int) string {
	if i < len(t.LocNames) {
		return t.LocNames[i]
	}
	return fmt.Sprintf("loc%d", i)
}

// loadRefs returns the observed-load registry of a declarative test:
// thread i's k-th load binds register obsBase+k.
func (t *Test) loadRefs() []LoadRef { return t.appendLoadRefs(nil) }

// appendLoadRefs appends the observed-load registry to refs.
func (t *Test) appendLoadRefs(refs []LoadRef) []LoadRef {
	for ti, th := range t.Threads {
		k := 0
		for _, op := range th {
			if op.Kind == OpLoad {
				refs = append(refs, LoadRef{Thread: ti, Reg: obsBase + isa.Reg(k)})
				k++
			}
		}
	}
	return refs
}

// Key renders an outcome as the canonical string used for allowed-set
// membership and reporting, e.g. "P0:r4=0 P1:r4=1 | x=1 y=1".
func (t *Test) Key(refs []LoadRef, o Outcome) string {
	names := make([]string, len(o.Mem))
	for i := range names {
		names[i] = t.locName(i)
	}
	return FormatKey(refs, names, o)
}

// FormatKey renders an outcome key from its raw parts, so a replay
// bundle can reproduce keys without the Test that produced them.
func FormatKey(refs []LoadRef, locNames []string, o Outcome) string {
	return string(appendKey(make([]byte, 0, 64), refs, locNames, o))
}

// appendKey appends an outcome key to b.
func appendKey(b []byte, refs []LoadRef, locNames []string, o Outcome) []byte {
	for i, r := range refs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, 'P')
		b = strconv.AppendInt(b, int64(r.Thread), 10)
		b = append(b, ":r"...)
		b = strconv.AppendUint(b, uint64(r.Reg), 10)
		b = append(b, '=')
		b = strconv.AppendUint(b, o.Loads[i], 10)
	}
	if len(refs) > 0 {
		b = append(b, " | "...)
	}
	for i, v := range o.Mem {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, locNames[i]...)
		b = append(b, '=')
		b = strconv.AppendUint(b, v, 10)
	}
	return b
}

// AllowedKeys returns the allowed outcome keys under a spec, sorted:
// Outcomes for a test known to fit the engine (every library test
// does). It panics on a capacity error rather than report an empty
// allowed set; code handling arbitrary programs calls Outcomes.
func (t *Test) AllowedKeys(spec consistency.Spec) []string {
	keys, err := t.Outcomes(spec)
	if err != nil {
		panic(err)
	}
	return keys
}

// Library returns the litmus-test library, in presentation order.
func Library() []*Test {
	xy := []string{"x", "y"}
	tests := []*Test{
		{
			Name:     "sb",
			Doc:      "store buffering: both threads store then load the other location; both loads 0 requires store-load reordering (each load binds before the other thread's store performs)",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1), ld(1)},
				{st(1, 1), ld(0)},
			},
		},
		{
			Name:     "sb+fence",
			Doc:      "store buffering with a sync fence between store and load: the fence drains, so the SC set is exact on every model",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1), fence(), ld(1)},
				{st(1, 1), fence(), ld(0)},
			},
		},
		{
			Name:     "mp",
			Doc:      "message passing: writer stores data then flag; reader seeing the flag but stale data requires store-store or load-load reordering (the flag store performs before the data store, or the data load binds before the flag load)",
			NLocs:    2,
			LocNames: []string{"data", "flag"},
			Threads: []Thread{
				{st(0, 1), st(1, 1)},
				{ld(1), ld(0)},
			},
		},
		{
			Name:     "mp+crowd",
			Doc:      "message passing with a crowd of readers contending on data's home module: the crowd's directory transactions delay the data store's ownership grant (and its invalidates), so a store-store-reordering machine lets the main reader read data=0, then flag=1, then still hit its stale cached data=0 (a load-load-reordering one gets there by binding the final data load before the flag load); the crowd's single loads are unconstrained, and the reader seeing data=1 and then 0 would break same-location coherence on any model",
			NLocs:    2,
			LocNames: []string{"data", "flag"},
			Threads: []Thread{
				{st(0, 1), st(1, 1)},
				{ld(0), ld(1), ld(0)},
				{ld(0)},
				{ld(0)},
				{ld(0)},
				{ld(0)},
			},
		},
		{
			Name:     "mp+ra",
			Doc:      "message passing with release on the flag store and acquire on the flag load: ordered on every model",
			NLocs:    2,
			LocNames: []string{"data", "flag"},
			Threads: []Thread{
				{st(0, 1), stRel(1, 1)},
				{ldAcq(1), ld(0)},
			},
		},
		{
			Name:     "lb",
			Doc:      "load buffering: both threads load then store the other location; both loads 1 requires load-store reordering (a pending non-blocking load binds after the program-later store performed)",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{ld(1), st(0, 1)},
				{ld(0), st(1, 1)},
			},
		},
		{
			Name:     "lb+ra",
			Doc:      "load buffering with acquire loads: the store cannot issue before the acquire completes, so the SC set is exact",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{ldAcq(1), st(0, 1)},
				{ldAcq(0), st(1, 1)},
			},
		},
		{
			Name:     "iriw",
			Doc:      "independent reads of independent writes: the two readers disagreeing on the store order requires load-load reordering (each reader's second load binds before its first, both pending at once)",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1)},
				{st(1, 1)},
				{ld(0), ld(1)},
				{ld(1), ld(0)},
			},
		},
		{
			Name:     "iriw+sync",
			Doc:      "IRIW with a sync fence between each reader's loads: readers agree on the store order on every model",
			NLocs:    2,
			LocNames: xy,
			Threads: []Thread{
				{st(0, 1)},
				{st(1, 1)},
				{ld(0), fence(), ld(1)},
				{ld(1), fence(), ld(0)},
			},
		},
		{
			Name:     "corr",
			Doc:      "coherent read-read: two loads of one location may not observe its writes out of order, on any model",
			NLocs:    1,
			LocNames: []string{"x"},
			Threads: []Thread{
				{st(0, 1)},
				{ld(0), ld(0)},
			},
		},
		{
			Name:     "coww",
			Doc:      "coherent write-write: one thread's two stores to one location reach memory in program order, on any model",
			NLocs:    1,
			LocNames: []string{"x"},
			Threads: []Thread{
				{st(0, 1), st(0, 2)},
				{ld(0), ld(0)},
			},
		},
		lockTest(),
	}
	return tests
}

// TestByName finds a library test by name.
func TestByName(name string) (*Test, error) {
	for _, t := range Library() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("litmus: unknown test %q", name)
}

// synthLocNames are the location names of synthesized programs.
var synthLocNames = []string{"x", "y", "z", "w"}

// SynthTest wraps an arbitrary declarative program as a runnable
// litmus test with the standard x/y/z/w location names, and returns
// its total op count. The comparator's enumerated programs and the
// differential tester's random ones both become tests here, so the
// two can never disagree about what a program means.
func SynthTest(prog []Thread) (*Test, int) {
	nlocs, ops := 0, 0
	for _, th := range prog {
		ops += len(th)
		for _, op := range th {
			if op.Kind != OpFence && op.Loc >= nlocs {
				nlocs = op.Loc + 1
			}
		}
	}
	return &Test{
		Name:     "synth",
		NLocs:    nlocs,
		LocNames: synthLocNames[:nlocs],
		Threads:  prog,
	}, ops
}

// FormatProgram renders a synthesized program in litmus notation,
// e.g. "P0: st x=1; ld y || P1: st y=1; ld x".
func FormatProgram(prog []Thread) string {
	var b strings.Builder
	for ti, th := range prog {
		if ti > 0 {
			b.WriteString(" || ")
		}
		fmt.Fprintf(&b, "P%d: ", ti)
		for oi, op := range th {
			if oi > 0 {
				b.WriteString("; ")
			}
			switch {
			case op.Kind == OpFence:
				b.WriteString("fence")
			case op.Kind == OpLoad && op.Ann == AnnAcquire:
				b.WriteString("ldAcq " + synthLocNames[op.Loc])
			case op.Kind == OpLoad:
				b.WriteString("ld " + synthLocNames[op.Loc])
			case op.Ann == AnnRelease:
				fmt.Fprintf(&b, "stRel %s=%d", synthLocNames[op.Loc], op.Val)
			default:
				fmt.Fprintf(&b, "st %s=%d", synthLocNames[op.Loc], op.Val)
			}
		}
	}
	return b.String()
}

// builders serves the lock test: one builder, reset per program.
var builders = sync.Pool{New: func() any { return progb.New() }}

// Lock-test shared-memory layout: the synclib lock word and the
// counter it guards, on the standard litmus location addresses.
const (
	lockLoc    = 0
	counterLoc = 1
)

// lockTest builds the synclib-based critical-section test: two
// threads lock, read-increment-store a counter, and unlock. Mutual
// exclusion means the reads see 0 and 1 in some order and the counter
// ends at 2, on every model — the lock's acquire/release annotations
// are exactly what the relaxed models require for this to hold.
func lockTest() *Test {
	t := &Test{
		Name:     "lock",
		Doc:      "synclib spin-lock critical section: two threads increment a shared counter under the lock; mutual exclusion must hold on every model",
		NLocs:    2,
		LocNames: []string{"l", "c"},
		NThreads: 2,
	}
	t.Build = func(code []isa.Inst, progs [][]isa.Inst, refs []LoadRef, lay Layout, stagger []int) ([]isa.Inst, [][]isa.Inst, []LoadRef, error) {
		b := builders.Get().(*progb.Builder)
		defer builders.Put(b)
		code, progs, refs = code[:0], resize(progs, t.NThreads), refs[:0]
		for tid := 0; tid < t.NThreads; tid++ {
			b.Reset()
			obs := b.Alloc() // allocated first: stable register across threads
			for i := 0; i < stagger[tid]; i++ {
				b.Nop()
			}
			la := b.Alloc()
			ca := b.Alloc()
			b.LiU(la, lay.Addr(lockLoc))
			b.LiU(ca, lay.Addr(counterLoc))
			workloads.EmitLock(b, la)
			b.Ld(obs, ca, 0)
			tmp := b.Alloc()
			b.Addi(tmp, obs, 1)
			b.St(ca, 0, tmp)
			workloads.EmitUnlock(b, la)
			b.Halt()
			p, err := b.AppendProgram(code)
			if err != nil {
				return code, progs, refs, fmt.Errorf("litmus: lock test thread %d: %w", tid, err)
			}
			// A program appended before code grows keeps its old array.
			code, progs[tid], refs = p, p[len(code):len(p):len(p)], append(refs, LoadRef{Thread: tid, Reg: obs})
		}
		return code, progs, refs, nil
	}
	t.SCSet = []Outcome{
		{Loads: []uint64{0, 1}, Mem: []uint64{0, 2}},
		{Loads: []uint64{1, 0}, Mem: []uint64{0, 2}},
	}
	return t
}
