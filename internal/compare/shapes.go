package compare

import (
	"fmt"

	"memsim/internal/litmus"
)

// Budget bounds the witness search space. The comparator enumerates
// every canonical program within the budget in minimality order, so
// the first separating program found for a model pair is a minimal
// witness under that order.
type Budget struct {
	MaxOps      int  // total operations across all threads
	MaxThreads  int  // maximum thread count
	MaxLocs     int  // maximum distinct locations
	Fences      bool // include fence operations
	Annotations bool // include acquire loads and release stores
}

// DefaultBudget covers every known pairwise separation of the zoo:
// all of them have a two-thread witness of at most five operations
// over two locations (store buffering, message passing, 2+2W, the
// fenced reader, the forwarding shape, and the one-sided-release
// shape).
func DefaultBudget() Budget {
	return Budget{MaxOps: 5, MaxThreads: 2, MaxLocs: 2, Fences: true, Annotations: true}
}

// The engine's op capacity and the synthesized programs' location names.
const maxOps, maxLocs = 12, 4

// Validate rejects a budget that admits no program, or more ops or
// locations than the engine and the synthesizer hold: an empty search
// must never pass for a verdict that every class is equivalent.
func (b Budget) Validate() error {
	switch {
	case b.MaxThreads < 2:
		return fmt.Errorf("compare: budget MaxThreads %d below 2", b.MaxThreads)
	case b.MaxOps < 2 || b.MaxOps > maxOps:
		return fmt.Errorf("compare: budget MaxOps %d outside 2..%d", b.MaxOps, maxOps)
	case b.MaxLocs < 1 || b.MaxLocs > maxLocs:
		return fmt.Errorf("compare: budget MaxLocs %d outside 1..%d", b.MaxLocs, maxLocs)
	}
	return nil
}

// alphabet lists the candidate operations in minimality order: plain
// accesses first, then annotated ones, then the fence. Store values
// are placeholders; assignValues numbers them per location once a
// program's shape is fixed.
func (b Budget) alphabet() []litmus.Op {
	var a []litmus.Op
	for loc := 0; loc < b.MaxLocs; loc++ {
		a = append(a,
			litmus.Op{Kind: litmus.OpLoad, Loc: loc},
			litmus.Op{Kind: litmus.OpStore, Loc: loc})
	}
	if b.Annotations {
		for loc := 0; loc < b.MaxLocs; loc++ {
			a = append(a,
				litmus.Op{Kind: litmus.OpLoad, Loc: loc, Ann: litmus.AnnAcquire},
				litmus.Op{Kind: litmus.OpStore, Loc: loc, Ann: litmus.AnnRelease})
		}
	}
	if b.Fences {
		a = append(a, litmus.Op{Kind: litmus.OpFence, Ann: litmus.AnnSync})
	}
	return a
}

// opRank encodes an op for lexicographic program comparison during
// canonicalization. Kind dominates, then annotation, then location.
func opRank(op litmus.Op) int {
	return int(op.Kind)<<6 | int(op.Ann)<<3 | op.Loc
}

// Enumerate calls fn for each canonical program in minimality order
// (fewer total ops first, then fewer threads, then lexicographic).
// It stops early if fn returns false, and reports whether the full
// budget was exhausted.
//
// Canonical means the program survives symmetry reduction and basic
// usefulness pruning:
//   - locations are named in first-use order;
//   - equal-length threads are in lexicographic order (permuting them
//     never yields a smaller encoding);
//   - fences only separate two non-fence ops of the same thread;
//   - an acquire is never a thread's last op, a release never its
//     first (the annotation would order nothing);
//   - every location has at least one store and is touched by at
//     least two threads (single-thread or load-only locations cannot
//     distinguish models: a forwarded read of a privately-owned
//     location returns the same value the performed store would).
func (b Budget) Enumerate(fn func(threads []litmus.Thread) bool) (exhausted bool) {
	alpha := b.alphabet()
	for n := 2; n <= b.MaxOps; n++ {
		maxT := b.MaxThreads
		if maxT > n {
			maxT = n
		}
		for t := 2; t <= maxT; t++ {
			if !enumCompositions(n, t, n, nil, func(parts []int) bool {
				return enumPrograms(alpha, parts, fn)
			}) {
				return false
			}
		}
	}
	return true
}

// enumCompositions yields n as parts (length t, descending, each >=1,
// each <= max) in lexicographically descending order.
func enumCompositions(n, t, max int, acc []int, fn func([]int) bool) bool {
	if t == 1 {
		if n >= 1 && n <= max {
			return fn(append(acc, n))
		}
		return true
	}
	hi := n - (t - 1)
	if hi > max {
		hi = max
	}
	for p := hi; p >= 1; p-- {
		if p*t < n {
			break // descending parts can no longer sum to n
		}
		if !enumCompositions(n-p, t-1, p, append(acc, p), fn) {
			return false
		}
	}
	return true
}

// enumPrograms fills the thread shape with alphabet ops and yields
// each canonical completion.
func enumPrograms(alpha []litmus.Op, parts []int, fn func([]litmus.Thread) bool) bool {
	prog := make([]litmus.Thread, len(parts))
	for i, p := range parts {
		prog[i] = make(litmus.Thread, p)
	}
	var fill func(ti, oi int) bool
	fill = func(ti, oi int) bool {
		if oi == len(prog[ti]) {
			ti, oi = ti+1, 0
		}
		if ti == len(prog) {
			if !canonical(prog) {
				return true
			}
			return fn(assignValues(prog))
		}
		for _, op := range alpha {
			th := prog[ti]
			if op.Kind == litmus.OpFence {
				// A fence must separate two non-fence ops.
				if oi == 0 || oi == len(th)-1 || th[oi-1].Kind == litmus.OpFence {
					continue
				}
			}
			if op.Ann == litmus.AnnAcquire && oi == len(th)-1 {
				continue // orders nothing after it
			}
			if op.Ann == litmus.AnnRelease && oi == 0 {
				continue // orders nothing before it
			}
			th[oi] = op
			if !fill(ti, oi+1) {
				return false
			}
		}
		return true
	}
	return fill(0, 0)
}

// canonical applies the symmetry and usefulness filters described on
// Enumerate.
func canonical(prog []litmus.Thread) bool {
	// Locations appear in first-use order.
	next := 0
	var stores, threads [8]int // per-loc: store count, touching-thread bitmask
	for ti, th := range prog {
		for _, op := range th {
			if op.Kind == litmus.OpFence {
				continue
			}
			if op.Loc > next {
				return false
			}
			if op.Loc == next {
				next++
			}
			if op.Kind == litmus.OpStore {
				stores[op.Loc]++
			}
			threads[op.Loc] |= 1 << ti
		}
	}
	if next == 0 {
		return false // no memory accesses at all
	}
	for l := 0; l < next; l++ {
		if stores[l] == 0 || popcount(threads[l]) < 2 {
			return false
		}
	}
	// No permutation of the threads that keeps the length sequence
	// (and hence the composition shape) yields a smaller encoding; an
	// encoding has an entry per op and per thread, at most two per op.
	var ids, origBuf, permBuf [2 * maxOps]int
	perm := ids[:len(prog)]
	for i := range perm {
		perm[i] = i
	}
	orig := encode(origBuf[:0], prog, perm)
	smaller := false
	permute(perm, 0, func() {
		for i := range perm {
			if len(prog[perm[i]]) != len(prog[i]) {
				return
			}
		}
		if lexLess(encode(permBuf[:0], prog, perm), orig) {
			smaller = true
		}
	})
	return !smaller
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// permute invokes fn with p holding each of its permutations in turn
// (p is scratch space).
func permute(p []int, from int, fn func()) {
	if from == len(p) {
		fn()
		return
	}
	for i := from; i < len(p); i++ {
		p[from], p[i] = p[i], p[from]
		permute(p, from+1, fn)
		p[from], p[i] = p[i], p[from]
	}
}

// encode appends a permuted program, flattened with first-use
// location renaming into a comparable integer sequence, to out.
func encode(out []int, prog []litmus.Thread, perm []int) []int {
	rename := [8]int{}
	for i := range rename {
		rename[i] = -1
	}
	next := 0
	for _, pi := range perm {
		for _, op := range prog[pi] {
			o := op
			if o.Kind != litmus.OpFence {
				if rename[o.Loc] == -1 {
					rename[o.Loc] = next
					next++
				}
				o.Loc = rename[o.Loc]
			} else {
				o.Loc = 0
			}
			out = append(out, opRank(o))
		}
		out = append(out, -1) // thread separator
	}
	return out
}

func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// assignValues gives each store a distinct per-location value
// (1, 2, ... in thread-then-program order) so outcomes identify which
// store a load observed and which store performed last, and returns a
// fresh copy safe to retain.
func assignValues(prog []litmus.Thread) []litmus.Thread {
	out := make([]litmus.Thread, len(prog))
	var next [8]uint64
	for ti, th := range prog {
		out[ti] = make(litmus.Thread, len(th))
		copy(out[ti], th)
		for oi := range out[ti] {
			if out[ti][oi].Kind == litmus.OpStore {
				next[out[ti][oi].Loc]++
				out[ti][oi].Val = next[out[ti][oi].Loc]
			}
		}
	}
	return out
}
