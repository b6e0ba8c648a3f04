package litmus

import (
	"fmt"
	"sort"
	"strings"

	"memsim/internal/consistency"
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
	ann := map[annMode]string{annInvisible: "", annTwoSided: "sync", annOneSided: "rel/acq"}[annModeOf(s)]
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
// sorted. A declarative test gets the engine's set; a custom test has
// no abstract ops to interpret and keeps its explicit SCSet on every
// model. A test beyond the engine's capacity is an error, never an
// empty set.
func (t *Test) Outcomes(spec consistency.Spec) ([]string, error) {
	if t.Threads == nil {
		return t.OracleKeys()
	}
	totalOps := 0
	for _, th := range t.Threads {
		totalOps += len(th)
	}
	if totalOps > maxEngineOps {
		return nil, fmt.Errorf("litmus: %s has %d ops, engine limit is %d", t.Name, totalOps, maxEngineOps)
	}

	mode := annModeOf(spec)
	relax := spec.Relaxations()
	refs := t.loadRefs()

	// Canonical observed-load slots, as the oracle assigns them.
	loadIdx := make([][]int, len(t.Threads))
	nLoads := 0
	maxVal := uint64(0)
	for ti, th := range t.Threads {
		loadIdx[ti] = make([]int, len(th))
		for oi, op := range th {
			if op.Kind == OpLoad {
				loadIdx[ti][oi] = nLoads
				nLoads++
			}
			if op.Kind == OpStore && op.Val > maxVal {
				maxVal = op.Val
			}
		}
	}
	vbits := 1
	for (uint64(1) << vbits) <= maxVal {
		vbits++
	}
	if totalOps+(t.NLocs+nLoads)*vbits > 64 {
		return nil, fmt.Errorf("litmus: %s state (%d ops, %d locs, %d loads, %d value bits) exceeds packed-state capacity",
			t.Name, totalOps, t.NLocs, nLoads, vbits)
	}

	execd := make([]uint32, len(t.Threads))
	mem := make([]uint64, t.NLocs)
	obs := make([]uint64, nLoads)
	visited := make(map[uint64]bool)
	var keys []string

	pack := func() uint64 {
		var k uint64
		shift := 0
		for ti := range t.Threads {
			k |= uint64(execd[ti]) << shift
			shift += len(t.Threads[ti])
		}
		for _, v := range mem {
			k |= v << shift
			shift += vbits
		}
		for _, v := range obs {
			k |= v << shift
			shift += vbits
		}
		return k
	}

	var rec func()
	rec = func() {
		k := pack()
		if visited[k] {
			return
		}
		visited[k] = true
		anyReady := false
		for ti, th := range t.Threads {
			for oi, op := range th {
				if execd[ti]&(1<<oi) != 0 {
					continue
				}
				ready := true
				for pj := 0; pj < oi; pj++ {
					if execd[ti]&(1<<pj) == 0 && ordered(spec, mode, relax, th[pj], op) {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				anyReady = true
				execd[ti] |= 1 << oi
				switch op.Kind {
				case OpFence:
					rec()
				case OpStore:
					old := mem[op.Loc]
					mem[op.Loc] = op.Val
					rec()
					mem[op.Loc] = old
				case OpLoad:
					v := mem[op.Loc]
					if spec.WriteBuffer {
						// Forward from the newest program-earlier
						// same-location store still in the buffer.
						// Same-location stores stay ordered, so if the
						// newest one has executed, all earlier ones have.
						for pj := oi - 1; pj >= 0; pj-- {
							if th[pj].Kind == OpStore && th[pj].Loc == op.Loc {
								if execd[ti]&(1<<pj) == 0 {
									v = th[pj].Val
								}
								break
							}
						}
					}
					idx := loadIdx[ti][oi]
					old := obs[idx]
					obs[idx] = v
					rec()
					obs[idx] = old
				}
				execd[ti] &^= 1 << oi
			}
		}
		if anyReady {
			return
		}
		// Every op has executed, and the visited set admits each
		// packed state once, so each final state is appended once.
		keys = append(keys, t.Key(refs, Outcome{Loads: obs, Mem: mem}))
	}
	rec()
	sort.Strings(keys)
	return keys, nil
}
