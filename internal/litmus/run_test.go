package litmus

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
)

// wideStoreTest is a custom test whose thread 0 stores 5 and reads it
// back while thread 1 halts. Its SCSet holds only 1s, so its words are
// one bit a field and the outcome every run observes has no word.
func wideStoreTest() *Test {
	t := &Test{Name: "wide-store", NLocs: 1, LocNames: []string{"x"}, NThreads: 2,
		SCSet: []Outcome{{Loads: []uint64{1}, Mem: []uint64{1}}}}
	t.Build = func(code []isa.Inst, progs [][]isa.Inst, refs []LoadRef, lay Layout, stagger []int) ([]isa.Inst, [][]isa.Inst, []LoadRef, error) {
		code, progs = resize(code, stagger[0]+stagger[1]+6)[:0], resize(progs, 2)
		for tid := 0; tid < 2; tid++ {
			start := len(code)
			for i := 0; i < stagger[tid]; i++ {
				code = append(code, isa.Inst{Op: isa.NOP})
			}
			if tid == 0 {
				code = append(code,
					isa.Inst{Op: isa.LI, Rd: addrBase, Imm: int64(lay.Addr(0))},
					isa.Inst{Op: isa.LI, Rd: storeReg, Imm: 5},
					isa.Inst{Op: isa.ST, Rs1: addrBase, Rs2: storeReg},
					isa.Inst{Op: isa.LD, Rd: obsBase, Rs1: addrBase})
			}
			code = append(code, isa.Inst{Op: isa.HALT})
			progs[tid] = code[start:len(code):len(code)]
		}
		return code, progs, append(refs[:0], LoadRef{Thread: 0, Reg: obsBase}), nil
	}
	return t
}

// TestRunReportsUnpackableOutcome: an observed outcome that does not
// pack into the test's words is no allowed outcome. Run takes the
// string path with it — counted and reported under the key FormatKey
// gives — and each violation replays to it, from its record and from
// that record's JSON.
func TestRunReportsUnpackableOutcome(t *testing.T) {
	wide := wideStoreTest()
	const runs = 20
	rep, err := Run(wide, consistency.TSO, Config{Runs: runs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := FormatKey([]LoadRef{{Thread: 0, Reg: obsBase}}, wide.LocNames, Outcome{Loads: []uint64{5}, Mem: []uint64{5}})
	if want := []string{"P0:r4=1 | x=1"}; !reflect.DeepEqual(rep.Allowed, want) {
		t.Fatalf("allowed %q, want %q", rep.Allowed, want)
	}
	if len(rep.Violations) != runs || rep.Witnessed[key] != runs || rep.FirstSeed[key] != 1 || len(rep.Witnessed) != 1 {
		t.Fatalf("%d violations, witnessed %v, first seeds %v; want %d of %q from seed 1",
			len(rep.Violations), rep.Witnessed, rep.FirstSeed, runs, key)
	}
	for i := range rep.Violations {
		v := &rep.Violations[i]
		if v.Outcome != key || v.Seed != int64(1+i) {
			t.Fatalf("violation %d: %q at seed %d, want %q at seed %d", i, v.Outcome, v.Seed, key, 1+i)
		}
		if got, ok, err := v.Reproduce(nil); err != nil || !ok {
			t.Fatalf("violation %d: replay produced %q, reproduced %v (%v)", i, got, ok, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Violation
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := decoded.Reproduce(nil); err != nil || !ok {
			t.Fatalf("violation %d from JSON: replay produced %q, reproduced %v (%v)", i, got, ok, err)
		}
	}
}

// TestRunPooledScratchConcurrent: Run takes its explorer, record and
// counts from a pool, so goroutines running different tests hand one
// scratch to each other. Four goroutines, each starting at a different
// (test, model) pair, run every pair; every report must equal the one
// a sequential run made.
func TestRunPooledScratchConcurrent(t *testing.T) {
	type job struct {
		test  *Test
		model consistency.Model
	}
	var jobs []job
	for _, name := range []string{"sb", "iriw", "mp+crowd", "lock"} {
		lt, err := TestByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []consistency.Model{consistency.SC1, consistency.TSO, consistency.RC} {
			jobs = append(jobs, job{lt, m})
		}
	}
	cfg := Config{Runs: 20, Seed: 11}
	want := make([]*Report, len(jobs))
	for i, j := range jobs {
		rep, err := Run(j.test, j.model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	const workers = 4
	got := make([][]*Report, workers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*Report, len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + g*len(jobs)/workers) % len(jobs)
				rep, err := Run(jobs[i].test, jobs[i].model, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = rep
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, j := range jobs {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("goroutine %d, %s under %s: report\n %+v\nsequential\n %+v", g, j.test.Name, j.model, got[g][i], want[i])
			}
		}
	}
}
