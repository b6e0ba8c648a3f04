// Package difftest is the random-program differential tester: a
// seeded generator of small concurrent programs, a checker that runs
// each program on the simulated hardware under every consistency
// model and asserts each observed final-state outcome is contained in
// the spec-derived allowed-outcome engine's set (cross-validated
// against the SC interleaving oracle), a delta-debugging shrinker
// that reduces any violating program to a 1-minimal reproducer, and
// self-contained JSON repro bundles replayable bit-exactly.
//
// The litmus library proves conformance on hand-picked shapes; this
// package fuzzes the same contract over the open program space, and
// is the correctness backstop perf work is pinned against: any engine
// rewrite or machine scaling change that lets the hardware reorder
// where its model says it must not shows up here as a shrunk,
// replayable counterexample.
package difftest

import (
	"fmt"

	"memsim/internal/litmus"
	"memsim/internal/robust"
)

// Hard capacity limits, derived from the rest of the system:
// the litmus engine's packed DFS state caps total operations; the
// litmus code generator's register conventions cap locations (address
// registers r8..r11) and observed loads per thread (r4..r7).
const (
	MaxOps         = 12
	MaxLocs        = 4
	MaxThreadLoads = 4
	maxStoreVal    = 7 // keeps packed value bits at 3, well inside capacity
)

// GenConfig is the generator's dial set. Percentages are 0..100.
type GenConfig struct {
	Threads       int `json:"threads"`         // max threads per program (2..4)
	Ops           int `json:"ops"`             // max total operations (2..MaxOps)
	Locs          int `json:"locs"`            // max distinct locations (1..MaxLocs)
	StorePct      int `json:"store_pct"`       // share of accesses that are stores
	SyncPct       int `json:"sync_pct"`        // share of ops carrying synchronization (fence, acquire, release)
	FalseSharePct int `json:"false_share_pct"` // share of programs laid out with same-line locations
}

// DefaultGen is the smoke-test dial setting: 2-3 threads, up to 8
// ops over up to 3 locations, an even read/write mix, light sync.
func DefaultGen() GenConfig {
	return GenConfig{Threads: 3, Ops: 8, Locs: 3, StorePct: 50, SyncPct: 15, FalseSharePct: 25}
}

// Validate rejects dials outside the hardware and engine capacity.
func (g GenConfig) Validate() error {
	switch {
	case g.Threads < 2 || g.Threads > 4:
		return fmt.Errorf("difftest: threads dial %d outside 2..4", g.Threads)
	case g.Ops < 2 || g.Ops > MaxOps:
		return fmt.Errorf("difftest: ops dial %d outside 2..%d", g.Ops, MaxOps)
	case g.Locs < 1 || g.Locs > MaxLocs:
		return fmt.Errorf("difftest: locs dial %d outside 1..%d", g.Locs, MaxLocs)
	case g.StorePct < 0 || g.StorePct > 100:
		return fmt.Errorf("difftest: store-pct %d outside 0..100", g.StorePct)
	case g.SyncPct < 0 || g.SyncPct > 100:
		return fmt.Errorf("difftest: sync-pct %d outside 0..100", g.SyncPct)
	case g.FalseSharePct < 0 || g.FalseSharePct > 100:
		return fmt.Errorf("difftest: false-share-pct %d outside 0..100", g.FalseSharePct)
	}
	return nil
}

// Program is one generated (or shrunk) random concurrent program plus
// its layout choice.
type Program struct {
	Seed    int64           `json:"seed"`             // generator seed (0 for hand-made/shrunk programs)
	Threads []litmus.Thread `json:"threads"`          // per-thread program-ordered operations
	Stride  uint64          `json:"stride,omitempty"` // location stride; 8 = false sharing, 0 = default spread
}

// Generate draws one random program from the dials, deterministically
// from the seed. Programs that cannot communicate across threads (no
// location both stored and touched by a second thread) are redrawn
// from the same stream, so every emitted program can in principle
// distinguish hardware behaviors.
func Generate(g GenConfig, seed int64) Program {
	x := uint64(seed)
	robust.SplitMix64(&x) // decorrelate consecutive seeds
	var p Program
	for attempt := 0; ; attempt++ {
		p = draw(g, &x)
		if attempt >= 32 || communicates(p.Threads) {
			break
		}
	}
	p.Seed = seed
	return p
}

// draw produces one candidate program from the stream.
func draw(g GenConfig, x *uint64) Program {
	pct := func(p int) bool { return int(robust.SplitMix64(x)%100) < p }

	nthreads := 2
	if g.Threads > 2 {
		nthreads += int(robust.SplitMix64(x) % uint64(g.Threads-1))
	}
	minOps := nthreads
	if g.Ops < minOps {
		minOps = g.Ops
		nthreads = g.Ops
	}
	nops := minOps + int(robust.SplitMix64(x)%uint64(g.Ops-minOps+1))
	nlocs := 1 + int(robust.SplitMix64(x)%uint64(g.Locs))

	// Split the ops among the threads, at least one each.
	counts := make([]int, nthreads)
	for i := range counts {
		counts[i] = 1
	}
	for i := nthreads; i < nops; i++ {
		counts[robust.SplitMix64(x)%uint64(nthreads)]++
	}

	threads := make([]litmus.Thread, nthreads)
	for ti := range threads {
		loads := 0
		th := make(litmus.Thread, 0, counts[ti])
		for oi := 0; oi < counts[ti]; oi++ {
			sync := pct(g.SyncPct)
			// A third of the sync draws become standalone fences.
			if sync && robust.SplitMix64(x)%3 == 0 {
				th = append(th, litmus.Op{Kind: litmus.OpFence, Ann: litmus.AnnSync})
				continue
			}
			isStore := pct(g.StorePct) || loads >= MaxThreadLoads
			loc := int(robust.SplitMix64(x) % uint64(nlocs))
			if isStore {
				op := litmus.Op{Kind: litmus.OpStore, Loc: loc, Val: 1 + robust.SplitMix64(x)%maxStoreVal}
				if sync {
					op.Ann = litmus.AnnRelease
				}
				th = append(th, op)
			} else {
				op := litmus.Op{Kind: litmus.OpLoad, Loc: loc}
				if sync {
					op.Ann = litmus.AnnAcquire
				}
				th = append(th, op)
				loads++
			}
		}
		threads[ti] = th
	}

	p := Program{Threads: threads}
	if pct(g.FalseSharePct) {
		p.Stride = 8 // adjacent words: one cache line at line sizes >= 16
	}
	return p
}

// communicates reports whether some location is stored by one thread
// and touched by another — the minimum structure a program needs to
// observe any cross-thread ordering at all.
func communicates(threads []litmus.Thread) bool {
	if len(threads) < 2 {
		return false
	}
	var stores, touches [MaxLocs]int // per-loc thread bitmasks
	for ti, th := range threads {
		for _, op := range th {
			if op.Kind == litmus.OpFence || op.Loc >= MaxLocs {
				continue
			}
			if op.Kind == litmus.OpStore {
				stores[op.Loc] |= 1 << ti
			}
			touches[op.Loc] |= 1 << ti
		}
	}
	for l := range stores {
		if stores[l] != 0 && touches[l]&^stores[l] != 0 {
			return true
		}
		// Two different threads storing the same location also
		// communicate (the final memory value orders them).
		if stores[l]&(stores[l]-1) != 0 {
			return true
		}
	}
	return false
}

// Ops counts the program's total operations.
func (p Program) Ops() int {
	_, ops := litmus.SynthTest(p.Threads)
	return ops
}

// NLocs counts the program's distinct locations (max index + 1).
func (p Program) NLocs() int { return p.test().NLocs }
