package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/machine"
	"memsim/internal/workloads"
)

// TestWorkloadMemoKey: two specs share the workload a Runner memoizes
// iff fresh Workload calls for them build equal programs and images.
// The grid crosses every benchmark (and QsortRWO) with processor counts
// and Relax schedules, and with what Workload does not read — model,
// cache, line, load delay, MSHRs — which must not split an entry.
func TestWorkloadMemoKey(t *testing.T) {
	p := Quick()
	r := NewRunner(p)
	type variant struct {
		model              consistency.Model
		cache, line, delay int
		mshrs              int
	}
	variants := []variant{
		{consistency.SC1, p.LargeCache, 8, 0, 0},
		{consistency.RC, p.SmallCache, 64, 2, 2},
	}
	var specs []RunSpec
	for _, b := range append(append([]Bench(nil), Benches...), BQsortRWO) {
		for _, procs := range []int{0, 8, 16, 32} {
			for sched := workloads.RelaxDefault; sched <= workloads.RelaxMissLast; sched++ {
				for _, v := range variants {
					specs = append(specs, RunSpec{Bench: b, Model: v.model, CacheSize: v.cache, LineSize: v.line,
						LoadDelay: v.delay, Procs: procs, MSHRs: v.mshrs, RelaxSched: sched})
				}
			}
		}
	}
	fresh := make([][sha256.Size]byte, len(specs))
	memoized := make([]*workloads.Workload, len(specs))
	for i, s := range specs {
		w := Workload(p, s)
		fresh[i] = sha256.Sum256(fmt.Appendf(nil, "%d %v", w.SharedWords, w.Programs))
		m := r.workload(r.normalize(s))
		memoized[i] = &m
	}
	for i := range specs {
		for j := i + 1; j < len(specs); j++ {
			shared := &memoized[i].Programs[0][0] == &memoized[j].Programs[0][0]
			if equal := fresh[i] == fresh[j]; shared != equal {
				t.Errorf("%+v and %+v: share a memoized workload %t, build equal ones %t", specs[i], specs[j], shared, equal)
			}
		}
	}
}

// TestRunnerSharedWorkloads: two goroutines on one Runner run Gauss and
// Relax under the five paper models, one at each line size, so every
// workload's programs and reference serve two machines at once. Every
// checksum must be quick.json's; under -race, nothing may write what
// the machines share.
func TestRunnerSharedWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden/quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	p := Quick()
	r := NewRunner(p)
	var wg sync.WaitGroup
	for _, ls := range p.LineSizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range []Bench{BGauss, BRelax} {
				for _, m := range []consistency.Model{consistency.SC1, consistency.SC2, consistency.WO1, consistency.WO2, consistency.RC} {
					key := fmt.Sprintf("%s/%s/line%d", b, m, ls)
					res, err := r.Run(RunSpec{Bench: b, Model: m, CacheSize: p.LargeCache, LineSize: ls})
					if err != nil {
						t.Errorf("%s: %v", key, err)
					} else if got := res.Checksum(); got != golden[key] {
						t.Errorf("%s on a shared workload: checksum %s, quick.json has %s", key, got, golden[key])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunnerCellAllocs: on a warm Runner, one that has run
// Gauss/SC1/line8, a cell of the same workload under another model
// costs its Result, its key and its memo entry: the workload, its
// reference, the machine and its private pages were all paid for by
// the first cell. The test holds as many 8-CPU machines as may wait,
// so that every run takes the one machine the first built, and another
// Runner warms it under all five models first: a machine's tables keep
// the high-water mark of the runs so far, and WO1's deeper overlap
// raises it once. What is left beside the Result is a directory
// entry's waiter array grown now and then. The ceiling is what the
// commit that set it measured with go1.24 on amd64 (2 832 to 4 200 B
// a cell) plus a quarter; before workloads, references and private
// pages were kept a cell cost 45 216 to 46 584 B.
func TestRunnerCellAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := Quick()
	models := []consistency.Model{consistency.SC1, consistency.SC2, consistency.WO1, consistency.WO2, consistency.RC}
	warmup, r := NewRunner(p), NewRunner(p)
	spec := RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: p.LargeCache, LineSize: 8}
	held := make([]*machine.Machine, runtime.GOMAXPROCS(0))
	for i := range held {
		m, err := warmup.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = m
	}
	defer func() {
		for _, m := range held {
			m.Release()
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, m := range models {
		spec.Model = m
		if _, err := warmup.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	spec.Model = consistency.SC1
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	const ceiling = 5_250
	for _, m := range models[1:] {
		spec.Model = m
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		b := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d B", r.Key(spec), b)
		if b > ceiling {
			t.Errorf("%s on a warm Runner allocates %d B; want at most %d B", r.Key(spec), b, ceiling)
		}
	}
}
