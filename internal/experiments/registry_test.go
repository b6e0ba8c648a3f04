package experiments

import (
	"reflect"
	"strings"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/workloads"
)

// TestExperimentRegistry: the list is `sweep -all`'s order, every id is
// unique and resolves (scaling only by id), and an unknown id's error
// names every valid one.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"t2", "f2", "f4", "f5", "f6", "f7", "f8", "f9", "t3-6", "rwo", "mshr", "zoo"}
	var got []string
	for _, e := range Experiments {
		got = append(got, e.ID)
		if e.Title == "" || e.Paper == "" || e.Assessment == "" || e.Run == nil {
			t.Errorf("%s: incomplete entry %+v", e.ID, e)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Experiments ids = %v, want %v", got, want)
	}
	ids := ExperimentIDs()
	if !reflect.DeepEqual(ids, append(want, "scaling")) {
		t.Fatalf("ExperimentIDs() = %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("id %q listed twice", id)
		}
		seen[id] = true
		e, err := LookupExperiment(id)
		if err != nil || e.ID != id || e.Run == nil {
			t.Errorf("LookupExperiment(%q) = %q, %v", id, e.ID, err)
		}
	}
	_, err := LookupExperiment("f10")
	if err == nil {
		t.Fatal(`LookupExperiment("f10") resolved`)
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not list %q", err, id)
		}
	}
}

// TestKeyInjective: two specs that normalize differently never share a
// key, so the service's content address never serves one run's result
// for another. The grid covers sizes below and between whole KB.
func TestKeyInjective(t *testing.T) {
	r := NewRunner(Quick())
	keys := map[string]RunSpec{}
	for _, b := range append(Benches, BQsortRWO) {
		for _, m := range []consistency.Model{consistency.SC1, consistency.RC} {
			for _, cache := range []int{0, 256, 512, 1000, 1024, 1536, 2048, 4096} {
				for _, line := range []int{8, 64} {
					for _, delay := range []int{0, 2, 4} {
						for _, procs := range []int{0, 8, 32} {
							for _, mshrs := range []int{0, 2, 5} {
								for sched := workloads.RelaxDefault; sched <= workloads.RelaxMissLast; sched++ {
									s := RunSpec{Bench: b, Model: m, CacheSize: cache, LineSize: line,
										LoadDelay: delay, Procs: procs, MSHRs: mshrs, RelaxSched: sched}
									n := r.normalize(s)
									k := r.Key(s)
									if prev, ok := keys[k]; ok && prev != n {
										t.Fatalf("key %q names both %+v and %+v", k, prev, n)
									}
									keys[k] = n
								}
							}
						}
					}
				}
			}
		}
	}
	if k := r.Key(RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: 256, LineSize: 8}); k != "Gauss/SC1/cache256B/line8" {
		t.Errorf("sub-KB key = %q", k)
	}
	if k := r.Key(RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: 4096, LineSize: 8}); k != "Gauss/SC1/cache4K/line8" {
		t.Errorf("whole-KB key = %q", k)
	}
}

func TestParseNames(t *testing.T) {
	for _, name := range []string{"gauss", "GAUSS", "Gauss"} {
		if b, err := ParseBench(name); err != nil || b != BGauss {
			t.Errorf("ParseBench(%q) = %q, %v", name, b, err)
		}
	}
	for _, name := range []string{"", "QsortRWO", "gaus"} {
		if _, err := ParseBench(name); err == nil {
			t.Errorf("ParseBench(%q) accepted", name)
		}
	}
	for name, want := range map[string]workloads.RelaxSchedule{
		"": workloads.RelaxDefault, "Default": workloads.RelaxDefault,
		"miss-first": workloads.RelaxMissFirst, "MISS-LAST": workloads.RelaxMissLast,
	} {
		if s, err := workloads.ParseRelaxSchedule(name); err != nil || s != want {
			t.Errorf("ParseRelaxSchedule(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := workloads.ParseRelaxSchedule("schedule(3)"); err == nil {
		t.Error("ParseRelaxSchedule accepted an out-of-range schedule")
	}
}

// TestValidateMatchesMachine: Validate refuses what the machine would,
// with the machine's reason, and accepts the preset's own cells.
func TestValidateMatchesMachine(t *testing.T) {
	r := NewRunner(Quick())
	ok := RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: 1 << 10, LineSize: 8}
	if err := r.Validate(ok); err != nil {
		t.Fatalf("Validate(%+v) = %v", ok, err)
	}
	for _, c := range []struct {
		edit func(*RunSpec)
		want string
	}{
		{func(s *RunSpec) { s.Procs = -1 }, "processors"},
		{func(s *RunSpec) { s.Procs = 3 }, "power of two"},
		{func(s *RunSpec) { s.Procs = 512 }, "sharer map"},
		{func(s *RunSpec) { s.CacheSize = 1000 }, "cache size"},
		{func(s *RunSpec) { s.LineSize = 24 }, "line size"},
		{func(s *RunSpec) { s.MSHRs = -2 }, "MSHR"},
		{func(s *RunSpec) { s.LoadDelay = -1 }, "load delay"},
	} {
		s := ok
		c.edit(&s)
		err := r.Validate(s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want an error mentioning %q", s, err, c.want)
		}
		if _, rerr := r.Run(s); rerr == nil {
			t.Errorf("Run(%+v) succeeded where Validate refused", s)
		}
	}
}
