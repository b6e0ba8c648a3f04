package litmus

import (
	"fmt"
	"sort"

	"memsim/internal/consistency"
)

// refOutcomes is the allowed-outcome engine as it stood before the
// explorer: a closure DFS that re-evaluates ordered() per candidate,
// re-packs every state and dedups through a map. It is kept verbatim
// as the differential reference the explorer must match key for key.
func refOutcomes(t *Test, spec consistency.Spec) ([]string, error) {
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
