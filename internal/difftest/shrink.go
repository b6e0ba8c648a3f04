package difftest

import (
	"context"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// The delta-debugging shrinker. A violating random program usually
// carries passengers: ops that played no part in the forbidden
// outcome, whole threads of noise, spurious location and value
// diversity. Shrink strips them by re-verified reduction — every
// candidate is re-run through the full differential check (same model,
// same seed set, same mutation) and kept only if it still fails — so
// the result is not merely smaller but provably still a reproducer.
//
// Reduction passes, in order of how much they cut:
//
//  1. thread removal   — drop a whole thread;
//  2. op removal       — drop one operation;
//  3. location merging — rename one location onto another;
//  4. value canonicalization — renumber store values 1,2,... per
//     location in thread-then-program order.
//
// After any accepted reduction the pass loop restarts, so the
// fixpoint is 1-minimal: no single thread removal, op removal, or
// location merge yields a program that still violates.

// ShrinkInfo summarizes one shrink run.
type ShrinkInfo struct {
	Candidates int `json:"candidates"` // candidate programs re-verified
	Accepted   int `json:"accepted"`   // reductions that still failed
	FromOps    int `json:"from_ops"`
	ToOps      int `json:"to_ops"`
}

// Shrink reduces a program that violates under (model, cfg) to a
// 1-minimal reproducer. The input program must fail the check (the
// caller just observed it do so); Shrink re-verifies that up front
// and returns the input unchanged if the failure does not reproduce
// at these exact seeds.
func Shrink(ctx context.Context, p Program, model consistency.Model, cfg CheckConfig) (Program, *ShrinkInfo, error) {
	info := &ShrinkInfo{FromOps: p.Ops()}
	fails := func(cand Program) (bool, error) {
		info.Candidates++
		rep, err := CheckModel(ctx, cand, model, cfg)
		if err != nil {
			return false, err
		}
		return !rep.OK(), nil
	}

	ok, err := fails(p)
	if err != nil || !ok {
		info.ToOps = p.Ops()
		return p, info, err
	}

	cur := p
	for {
		cand, found, err := reduceOnce(ctx, cur, fails)
		if err != nil {
			return cur, info, err
		}
		if !found {
			break
		}
		info.Accepted++
		cur = cand
	}
	info.ToOps = cur.Ops()
	return cur, info, nil
}

// reduceOnce tries every single-step reduction of cur in pass order
// and returns the first one that still fails.
func reduceOnce(ctx context.Context, cur Program, fails func(Program) (bool, error)) (Program, bool, error) {
	try := func(cand Program) (bool, error) {
		if cand.Ops() == 0 || len(cand.Threads) == 0 {
			return false, nil
		}
		if ctx != nil && ctx.Err() != nil {
			return false, ctx.Err()
		}
		return fails(cand)
	}

	// Pass 1: thread removal.
	if len(cur.Threads) > 1 {
		for ti := range cur.Threads {
			cand := removeThread(cur, ti)
			if ok, err := try(cand); err != nil || ok {
				return cand, ok, err
			}
		}
	}
	// Pass 2: op removal.
	for ti, th := range cur.Threads {
		for oi := range th {
			cand := removeOp(cur, ti, oi)
			if ok, err := try(cand); err != nil || ok {
				return cand, ok, err
			}
		}
	}
	// Pass 3: location merging (rename the higher index onto the
	// lower, so the merge is also a canonicalization step).
	nlocs := cur.NLocs()
	for b := 1; b < nlocs; b++ {
		for a := 0; a < b; a++ {
			cand := mergeLocs(cur, a, b)
			if ok, err := try(cand); err != nil || ok {
				return cand, ok, err
			}
		}
	}
	// Pass 4: value canonicalization.
	if cand, changed := canonValues(cur); changed {
		if ok, err := try(cand); err != nil || ok {
			return cand, ok, err
		}
	}
	return cur, false, nil
}

// normalize drops empty threads and renames locations into first-use
// order, returning a fresh program.
func normalize(p Program) Program {
	out := Program{Seed: p.Seed, Stride: p.Stride}
	rename := [MaxLocs]int{}
	for i := range rename {
		rename[i] = -1
	}
	next := 0
	for _, th := range p.Threads {
		if len(th) == 0 {
			continue
		}
		nt := make(litmus.Thread, len(th))
		copy(nt, th)
		out.Threads = append(out.Threads, nt)
	}
	for _, th := range out.Threads {
		for oi, op := range th {
			if op.Kind == litmus.OpFence {
				continue
			}
			if rename[op.Loc] == -1 {
				rename[op.Loc] = next
				next++
			}
			th[oi].Loc = rename[op.Loc]
		}
	}
	return out
}

// removeThread drops thread ti.
func removeThread(p Program, ti int) Program {
	out := Program{Seed: p.Seed, Stride: p.Stride}
	for i, th := range p.Threads {
		if i != ti {
			out.Threads = append(out.Threads, th)
		}
	}
	return normalize(out)
}

// removeOp drops thread ti's op oi.
func removeOp(p Program, ti, oi int) Program {
	out := Program{Seed: p.Seed, Stride: p.Stride, Threads: make([]litmus.Thread, len(p.Threads))}
	for i, th := range p.Threads {
		if i != ti {
			out.Threads[i] = th
			continue
		}
		nt := make(litmus.Thread, 0, len(th)-1)
		nt = append(nt, th[:oi]...)
		nt = append(nt, th[oi+1:]...)
		out.Threads[i] = nt
	}
	return normalize(out)
}

// mergeLocs renames location b onto location a everywhere.
func mergeLocs(p Program, a, b int) Program {
	out := Program{Seed: p.Seed, Stride: p.Stride, Threads: make([]litmus.Thread, len(p.Threads))}
	for i, th := range p.Threads {
		nt := make(litmus.Thread, len(th))
		copy(nt, th)
		for oi := range nt {
			if nt[oi].Kind != litmus.OpFence && nt[oi].Loc == b {
				nt[oi].Loc = a
			}
		}
		out.Threads[i] = nt
	}
	return normalize(out)
}

// canonValues renumbers store values 1,2,... per location in
// thread-then-program order, reporting whether anything changed.
func canonValues(p Program) (Program, bool) {
	out := Program{Seed: p.Seed, Stride: p.Stride, Threads: make([]litmus.Thread, len(p.Threads))}
	var next [MaxLocs]uint64
	changed := false
	for i, th := range p.Threads {
		nt := make(litmus.Thread, len(th))
		copy(nt, th)
		for oi := range nt {
			if nt[oi].Kind == litmus.OpStore {
				next[nt[oi].Loc]++
				if nt[oi].Val != next[nt[oi].Loc] {
					nt[oi].Val = next[nt[oi].Loc]
					changed = true
				}
			}
		}
		out.Threads[i] = nt
	}
	return out, changed
}
