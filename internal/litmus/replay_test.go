package litmus

import (
	"encoding/json"
	"reflect"
	"testing"

	"memsim/internal/consistency"
)

// TestRunSpecRoundTrip: a RunSpec serialized to JSON and decoded back
// (dropping the cached compiled programs, so replay goes through the
// assembler) executes to the same outcome as the original run.
func TestRunSpecRoundTrip(t *testing.T) {
	sb, err := TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []consistency.Model{consistency.SC1, consistency.TSO, consistency.RC} {
		for seed := int64(1); seed <= 20; seed++ {
			rs, err := Setup(sb, m, seed, consistency.MutNone)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rs.Execute(nil)
			if err != nil {
				t.Fatal(err)
			}

			data, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			var decoded RunSpec
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			if decoded.progs != nil {
				t.Fatal("decoded spec must not carry compiled programs")
			}
			got, err := decoded.Execute(nil)
			if err != nil {
				t.Fatalf("sb/%s seed %d: replay: %v", m, seed, err)
			}
			if got != want {
				t.Fatalf("sb/%s seed %d: fresh run %q, JSON-round-tripped replay %q", m, seed, want, got)
			}
		}
	}
}

// TestViolationReplay: a verdict recorded under a seeded defect embeds
// a replay spec, and Reproduce brings back the forbidden outcome
// bit-exactly — including after a JSON round trip of the whole report,
// which is how `check replay` consumes it.
func TestViolationReplay(t *testing.T) {
	sbf, err := TestByName("sb+fence")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sbf, consistency.TSO, Config{Runs: 150, Seed: 1, Mutate: consistency.MutWBNoDrain})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("seeded wb-no-drain defect produced no violations on sb+fence/TSO (self-check broken?)")
	}
	if rep.Mutate != consistency.MutWBNoDrain.String() {
		t.Fatalf("report Mutate = %q, want %q", rep.Mutate, consistency.MutWBNoDrain)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for i := range decoded.Violations {
		v := &decoded.Violations[i]
		if v.Replay == nil {
			t.Fatalf("violation %d lost its replay record in JSON", i)
		}
		if v.Replay.Mutate != consistency.MutWBNoDrain.String() {
			t.Fatalf("violation %d replay spec Mutate = %q, want %q", i, v.Replay.Mutate, consistency.MutWBNoDrain)
		}
		key, ok, err := v.Reproduce(nil)
		if err != nil {
			t.Fatalf("violation %d (seed %d): %v", i, v.Seed, err)
		}
		if !ok {
			t.Fatalf("violation %d (seed %d): recorded %q, replay produced %q", i, v.Seed, v.Outcome, key)
		}
	}
}

// TestViolationOwnsItsPrograms: the spec a violation keeps holds the
// compiled programs of its own run. Run goes on to generate and execute
// every later seed's programs, on the same machine, before it returns;
// each recorded violation must then still replay from the record it
// holds, with no trip through text, on a machine of its own.
func TestViolationOwnsItsPrograms(t *testing.T) {
	sbf, err := TestByName("sb+fence")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sbf, consistency.TSO, Config{Runs: 150, Seed: 1, Mutate: consistency.MutWBNoDrain})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) < 2 || rep.Violations[0].Seed == 150 {
		t.Fatalf("want several violations, the first before the last run; got %d", len(rep.Violations))
	}
	for i := range rep.Violations {
		v := &rep.Violations[i]
		if v.Replay.progs == nil {
			t.Fatalf("violation %d (seed %d) holds no compiled programs", i, v.Seed)
		}
		want, err := Setup(sbf, consistency.TSO, v.Seed, consistency.MutWBNoDrain)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Replay.progs, want.progs) {
			t.Errorf("violation %d: the programs it holds are no longer seed %d's", i, v.Seed)
		}
		if key, ok, err := v.Reproduce(nil); err != nil || !ok {
			t.Errorf("violation %d (seed %d): recorded %q, replay produced %q (%v)", i, v.Seed, v.Outcome, key, err)
		}
	}
}

// TestViolationReplayNeedsSpec: a violation without an embedded spec
// (a verdict recorded before they were self-contained) reports a
// usable error instead of fabricating a replay.
func TestViolationReplayNeedsSpec(t *testing.T) {
	v := Violation{Seed: 3, Outcome: "P0:r4=0 | x=1"}
	if _, _, err := v.Reproduce(nil); err == nil {
		t.Fatal("Reproduce on a spec-less violation must error")
	}
}
