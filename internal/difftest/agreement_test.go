package difftest

import (
	"context"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// TestEngineOracleAgreement sweeps generated programs through
// AllowedSet under every model spec, which cross-validates the
// spec-derived engine against the SC interleaving oracle on each call:
// the oracle set must be contained in every engine set (the engine
// only adds outcomes by relaxing order), and an SC spec's engine set
// must equal the oracle set exactly. 500 programs x 10 specs — no
// hardware runs, so the sweep is pure engine/oracle arithmetic.
func TestEngineOracleAgreement(t *testing.T) {
	programs := 500
	if testing.Short() {
		programs = 100
	}
	g := DefaultGen()
	for seed := int64(1); seed <= int64(programs); seed++ {
		p := Generate(g, seed)
		for _, m := range consistency.Models {
			if _, err := AllowedSet(p, consistency.SpecFor(m)); err != nil {
				t.Fatalf("program seed %d (%s) under %s: %v", seed, litmus.FormatProgram(p.Threads), m, err)
			}
		}
	}
}

// TestEngineOracleAgreementWideDials repeats the sweep at the capacity
// corners: maximum threads/ops/locations, all-store and all-load
// mixes, saturated sync, forced false sharing.
func TestEngineOracleAgreementWideDials(t *testing.T) {
	dials := []GenConfig{
		{Threads: 4, Ops: MaxOps, Locs: MaxLocs, StorePct: 50, SyncPct: 20, FalseSharePct: 100},
		{Threads: 2, Ops: 10, Locs: 2, StorePct: 90, SyncPct: 0, FalseSharePct: 0},
		{Threads: 4, Ops: 10, Locs: 1, StorePct: 40, SyncPct: 80, FalseSharePct: 50},
	}
	n := int64(50)
	if testing.Short() {
		n = 15
	}
	for _, g := range dials {
		for seed := int64(1); seed <= n; seed++ {
			p := Generate(g, seed)
			for _, m := range consistency.Models {
				if _, err := AllowedSet(p, consistency.SpecFor(m)); err != nil {
					t.Fatalf("dials %+v seed %d (%s) under %s: %v", g, seed, litmus.FormatProgram(p.Threads), m, err)
				}
			}
		}
	}
}

// TestCheckModelRejectsOverCapacity: a program past the engine's op
// limit is an error from the check, not a verdict against an empty
// allowed set.
func TestCheckModelRejectsOverCapacity(t *testing.T) {
	long := make(litmus.Thread, MaxOps)
	for i := range long {
		long[i] = litmus.Op{Kind: litmus.OpStore, Loc: 0, Val: 1}
	}
	p := Program{Threads: []litmus.Thread{long, {{Kind: litmus.OpLoad, Loc: 0}}}}
	if rep, err := CheckModel(context.Background(), p, consistency.SC1, CheckConfig{Runs: 1}); err == nil {
		t.Fatalf("CheckModel accepted a %d-op program (allowed set %v)", p.Ops(), rep.Allowed)
	}
}
