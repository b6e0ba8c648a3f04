package litmus

import (
	"fmt"
	"slices"
	"strings"

	"memsim/internal/consistency"
	"memsim/internal/isa"
)

// The allowed-outcome engine: the one definition of which final
// states a model allows. It interprets a declarative test under a
// consistency.Spec's hardware dials, enumerating every linearization
// of the test's operations that respects the spec's preserved program
// order (the Adve/Gharachorloo relaxation axes, derived by
// Spec.Relaxations) and executing each against a single shared
// memory. Write-buffer specs additionally model store-to-load
// forwarding: a load may execute while a program-earlier
// same-location store is still unexecuted, reading the buffered value
// (read-own-write-early), which is observationally distinct from
// merely relaxing the W→R edge (the classic n6 shape: the forwarded
// value can be the final memory value even though the store performs
// last).
//
// A new model's allowed sets therefore follow from its Spec with no
// per-test edits. The engine is held to two independent references:
// the SC-interleaving oracle (oracle.go: equal under SC specs,
// contained under every spec) and testdata/allowed.json, the table of
// hand-written relaxed outcomes it replaced.

// maxEngineOps bounds the packed DFS state (executed bits + memory +
// observations must fit one uint64).
const maxEngineOps = 12

// annMode classifies how a spec's hardware sees synchronization
// annotations: invisible (SC systems treat everything as plain),
// two-sided (weak ordering maps acquire/release to full sync), or
// one-sided (release consistency keeps them directional).
type annMode int

const (
	annInvisible annMode = iota
	annTwoSided
	annOneSided
)

func annModeOf(s consistency.Spec) annMode {
	switch {
	case !s.SyncVisible:
		return annInvisible
	case s.ReleaseNonBlocking:
		return annOneSided
	default:
		return annTwoSided
	}
}

// Signature fingerprints the dials the engine reads: two specs with
// equal signatures produce identical outcome sets on every program.
func Signature(s consistency.Spec) string {
	if s.SequentiallyConsistent() {
		return "SC"
	}
	r := s.Relaxations()
	flag := func(b bool, name string) string {
		if b {
			return name
		}
		return ""
	}
	ann := [...]string{annInvisible: "", annTwoSided: "sync", annOneSided: "rel/acq"}[annModeOf(s)]
	parts := []string{flag(r.WR, "WR"), flag(r.WW, "WW"), flag(r.RR, "RR"), flag(r.RW, "RW"),
		flag(s.WriteBuffer, "fwd"), ann}
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, "+")
}

// effAnn mirrors cpu.effectiveClass: the annotation the hardware
// actually honors.
func effAnn(mode annMode, a Ann) Ann {
	switch mode {
	case annInvisible:
		return AnnPlain
	case annTwoSided:
		if a == AnnAcquire || a == AnnRelease {
			return AnnSync
		}
	}
	return a
}

// ordered reports whether program-order edge a→b (same thread, a
// earlier) is preserved by the spec: b may not execute while a is
// still pending unless this returns false.
func ordered(s consistency.Spec, mode annMode, r consistency.Relaxation, a, b Op) bool {
	if s.SequentiallyConsistent() {
		return true
	}
	ea, eb := effAnn(mode, a.Ann), effAnn(mode, b.Ann)
	if ea == AnnSync || eb == AnnSync {
		return true // fences and sync-classed ops order both directions
	}
	if a.Kind != OpFence && b.Kind != OpFence && a.Loc == b.Loc {
		// Same location: always ordered, except that a write buffer
		// lets a load run ahead of its own thread's pending store —
		// the load forwards the buffered value (read-own-write-early).
		if s.WriteBuffer && a.Kind == OpStore && b.Kind == OpLoad {
			return false
		}
		return true
	}
	if a.Kind == OpLoad && ea == AnnAcquire {
		return true // an acquire orders everything after it
	}
	if b.Kind == OpStore && eb == AnnRelease {
		return true // a release orders everything before it
	}
	switch {
	case a.Kind == OpStore && b.Kind == OpLoad:
		return !r.WR
	case a.Kind == OpStore && b.Kind == OpStore:
		return !r.WW
	case a.Kind == OpLoad && b.Kind == OpLoad:
		return !r.RR
	default:
		return !r.RW
	}
}

// Outcomes returns the test's allowed outcome keys under a spec,
// sorted: the engine run on the explorer of a pooled run scratch.
func (t *Test) Outcomes(spec consistency.Spec) ([]string, error) {
	sc := scratches.Get().(*runScratch)
	defer scratches.Put(sc)
	return sc.x.Outcomes(t, spec)
}

// Explorer is the engine's reusable scratch: the op table, the visited
// set and the allowed words, each a final state less its executed bits.
// Key and Pack map the words of the test loaded last to keys and
// outcomes, one to one. A warm search allocates only the keys asked
// for. The zero value is ready; it is not safe for concurrent use.
type Explorer struct {
	ops   []engineOp
	nOps  uint     // the executed bits are the state's low nOps bits
	vbits uint     // width of each memory and observation field
	seen  []uint64 // open addressing over nonzero states; 0 is empty
	spare []uint64 // the table seen grew from, for the next growth
	used  int
	refs  []LoadRef
	names []string
	vals  []uint64 // a final state's memory, then its observations
	buf   []byte
	words []uint64
	code  []isa.Inst // a custom test's programs, built for its refs
	progs [][]isa.Inst
	skew  []int // their stagger, all 0
}

// engineOp is op oi of thread ti, bit threadBase+oi of the state.
type engineOp struct {
	kind  OpKind
	bit   uint64 // this op's executed bit
	pred  uint64 // program-earlier ops the spec orders before it
	field uint   // shift of the location a store writes or a load reads
	slot  uint   // shift of a load's observation
	val   uint64 // a store's value, or what a forwarding load reads
	fwd   uint64 // the store a load forwards from while unexecuted
}

// Outcomes returns the test's allowed outcome keys under a spec,
// sorted: Keys of Words. The keys belong to the caller, the rest to
// the explorer.
func (x *Explorer) Outcomes(t *Test, spec consistency.Spec) ([]string, error) {
	words, err := x.Words(t, spec)
	if err != nil {
		return nil, err
	}
	return x.Keys(words), nil
}

// Words returns the test's allowed outcomes under a spec as sorted
// words: the engine's set, or a custom test's SCSet on every model. A
// test beyond the engine's capacity is an error, never an empty set.
// The words belong to the explorer until its next call.
func (x *Explorer) Words(t *Test, spec consistency.Spec) ([]uint64, error) {
	if err := x.load(t, spec); err != nil {
		return nil, err
	}
	x.words = x.words[:0]
	for _, o := range t.SCSet {
		w, ok := x.Pack(o)
		if !ok {
			return nil, fmt.Errorf("litmus: %s: SCSet outcome %v does not fit the test", t.Name, o)
		}
		x.words = append(x.words, w)
	}
	if t.Threads != nil {
		// A search grows its own table: it costs what it visits.
		x.seen, x.used = x.seen[:0], 0
		x.explore(0)
	}
	slices.Sort(x.words)
	return slices.Compact(x.words), nil
}

// Key formats a word of the test loaded last as its outcome key.
func (x *Explorer) Key(w uint64) string {
	vmask := uint64(1)<<x.vbits - 1
	for i := range x.vals {
		x.vals[i] = (w >> (uint(i) * x.vbits)) & vmask
	}
	n := len(x.names)
	x.buf = appendKey(x.buf[:0], x.refs, x.names, Outcome{Loads: x.vals[n:], Mem: x.vals[:n]})
	return string(x.buf)
}

// Keys formats words of the test loaded last as their keys, sorted.
func (x *Explorer) Keys(words []uint64) []string {
	keys := make([]string, len(words))
	for i, w := range words {
		keys[i] = x.Key(w)
	}
	slices.Sort(keys)
	return keys
}

// Pack packs an outcome of the test loaded last into its word, or
// reports false when a value does not fit its field (or the shape is
// wrong): such an outcome is no word of the test, so never allowed.
func (x *Explorer) Pack(o Outcome) (w uint64, ok bool) {
	if len(o.Mem) != len(x.names) || len(o.Mem)+len(o.Loads) != len(x.vals) {
		return 0, false
	}
	vmask, shift := uint64(1)<<x.vbits-1, uint(0)
	for _, vals := range [2][]uint64{o.Mem, o.Loads} {
		for _, v := range vals {
			if v > vmask {
				return 0, false
			}
			w, shift = w|v<<shift, shift+x.vbits
		}
	}
	return w, true
}

// load flattens the test into the op table and sizes the packed
// state: the executed bits, then NLocs memory fields, then one
// observation field per load, each vbits wide. A custom test has no
// ops; its fields are wide enough for the largest SCSet value.
func (x *Explorer) load(t *Test, spec consistency.Spec) (err error) {
	nOps, maxVal := 0, uint64(0)
	for _, th := range t.Threads {
		nOps += len(th)
		for _, op := range th {
			if op.Kind == OpStore && op.Val > maxVal {
				maxVal = op.Val
			}
		}
	}
	if nOps > maxEngineOps {
		return fmt.Errorf("litmus: %s has %d ops, engine limit is %d", t.Name, nOps, maxEngineOps)
	}
	x.refs = t.appendLoadRefs(x.refs[:0])
	if t.Threads == nil {
		x.skew = resize(x.skew, t.NThreads)
		x.code, x.progs, x.refs, err = t.Build(x.code, x.progs, x.refs[:0], DefaultLayout, x.skew)
		if err != nil {
			return err
		}
		for _, o := range t.SCSet {
			for _, vals := range [2][]uint64{o.Loads, o.Mem} {
				for _, v := range vals {
					maxVal = max(maxVal, v)
				}
			}
		}
	}
	nLoads, vbits := len(x.refs), 1
	for vbits < 64 && (uint64(1)<<vbits) <= maxVal {
		vbits++
	}
	if nOps+(t.NLocs+nLoads)*vbits > 64 {
		return fmt.Errorf("litmus: %s state (%d ops, %d locs, %d loads, %d value bits) exceeds packed-state capacity",
			t.Name, nOps, t.NLocs, nLoads, vbits)
	}
	x.nOps, x.vbits = uint(nOps), uint(vbits)
	field := func(i int) uint { return uint(nOps + i*vbits) }
	mode, relax := annModeOf(spec), spec.Relaxations()
	x.ops = x.ops[:0]
	base, nObs := 0, 0
	for _, th := range t.Threads {
		for oi, op := range th {
			e := engineOp{kind: op.Kind, bit: 1 << (base + oi), val: op.Val, field: field(op.Loc)}
			for pj := 0; pj < oi; pj++ {
				if ordered(spec, mode, relax, th[pj], op) {
					e.pred |= 1 << (base + pj)
				}
			}
			if op.Kind == OpLoad {
				e.slot = field(t.NLocs + nObs)
				nObs++
				// A write buffer forwards the newest program-earlier
				// same-location store while it is unexecuted (the
				// earlier ones stay ordered before it).
				for pj := oi - 1; pj >= 0 && spec.WriteBuffer; pj-- {
					if th[pj].Kind == OpStore && th[pj].Loc == op.Loc {
						e.fwd, e.val = 1<<(base+pj), th[pj].Val
						break
					}
				}
			}
			x.ops = append(x.ops, e)
		}
		base += len(th)
	}
	x.names = x.names[:0]
	for l := 0; l < t.NLocs; l++ {
		x.names = append(x.names, t.locName(l))
	}
	x.vals = slices.Grow(x.vals[:0], t.NLocs+nLoads)[:t.NLocs+nLoads]
	return nil
}

// explore visits state k and every state reachable from it, appending
// each final state's word to x.words. An op is ready once its pred bits
// are set; its successor is k with its bit set and the one field it
// writes XORed from the old value to the new.
func (x *Explorer) explore(k uint64) {
	// Every op sets a bit, so the initial state 0 is never re-reached
	// and stays out of the table.
	if k != 0 && !x.visit(k) {
		return
	}
	vmask := uint64(1)<<x.vbits - 1
	final := true
	for i := range x.ops {
		op := &x.ops[i]
		if k&op.bit != 0 || k&op.pred != op.pred {
			continue
		}
		final = false
		next := k | op.bit
		switch op.kind {
		case OpStore:
			next ^= ((k>>op.field)&vmask ^ op.val) << op.field
		case OpLoad:
			v := (k >> op.field) & vmask
			if k&op.fwd != op.fwd {
				v = op.val
			}
			next ^= ((k>>op.slot)&vmask ^ v) << op.slot
		}
		x.explore(next)
	}
	if final {
		x.words = append(x.words, k>>x.nOps)
	}
}

// visit adds nonzero k to the visited set and reports whether it was
// new. The table is a power of two, at most half full.
func (x *Explorer) visit(k uint64) bool {
	if 2*(x.used+1) > len(x.seen) {
		old := x.seen
		x.seen, x.spare, x.used = resize(x.spare, max(64, 2*len(old))), old, 0
		clear(x.seen)
		for _, o := range old {
			if o != 0 {
				x.visit(o)
			}
		}
	}
	mask := uint64(len(x.seen) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		switch x.seen[i] {
		case 0:
			x.seen[i], x.used = k, x.used+1
			return true
		case k:
			return false
		}
	}
}
