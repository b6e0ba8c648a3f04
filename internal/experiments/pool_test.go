package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/machine"
	"memsim/internal/robust"
	"memsim/internal/sim"
)

// raceBuild reports whether the test binary carries the race detector,
// whose instrumentation allocates.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestRunnerPooledMachinesReproduceGoldens: one Runner works through
// the quick golden grid on pooled machines while, between its specs,
// the pool takes back machines left in every state a run can leave
// one in, and the checksums must stay those quick.json has held since
// before machines were pooled. Between grid specs, in turn: a 4-CPU
// spec (a machine of another count, from its own pool); a run stopped
// by its event limit with events pending, and a machine the watchdog
// stopped mid-event, both released; a poisoned spec, whose panic comes
// before a machine is taken, so the pool is not touched; and the next
// grid spec resumed from a corrupt checkpoint, which Restore refuses
// half loaded, so the Runner hands that machine back for the next
// Acquire to reset, and runs fresh.
func TestRunnerPooledMachinesReproduceGoldens(t *testing.T) {
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
	limited := p
	limited.MaxEvents = 5000
	wedged := r.WithParams(limited)
	var grid []RunSpec
	for _, b := range Benches {
		for _, m := range []consistency.Model{consistency.SC1, consistency.SC2, consistency.WO1, consistency.WO2, consistency.RC} {
			for _, ls := range p.LineSizes {
				grid = append(grid, RunSpec{Bench: b, Model: m, CacheSize: p.LargeCache, LineSize: ls})
			}
		}
	}
	for i, s := range grid {
		key := fmt.Sprintf("%s/%s/line%d", s.Bench, s.Model, s.LineSize)
		switch i % 4 {
		case 0:
			four := s
			four.Procs = 4
			if _, err := r.Run(four); err != nil {
				t.Fatalf("after %s: 4-CPU spec: %v", key, err)
			}
		case 1:
			small := s
			small.CacheSize = p.SmallCache
			var se *robust.SimError
			if _, err := wedged.Run(small); !errors.As(err, &se) || se.Kind != robust.EventLimit {
				t.Fatalf("after %s: want an event-limit failure, got %v", key, err)
			}
			w := r.workload(s)
			m, err := machine.Acquire(machine.Config{Procs: w.Procs, Model: s.Model, CacheSize: s.CacheSize,
				LineSize: s.LineSize, LoadDelay: p.LoadDelay, SharedWords: w.SharedWords, StallCycles: 3}, w.Programs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(0); !errors.As(err, &se) || se.Kind != robust.Stall {
				t.Fatalf("after %s: want a watchdog stall, got %v", key, err)
			}
			m.Release()
		case 2:
			var se *robust.SimError
			if _, err := r.Run(RunSpec{Bench: Bench("Poison"), Model: s.Model, CacheSize: s.CacheSize, LineSize: s.LineSize}); !errors.As(err, &se) || se.Kind != robust.Panic {
				t.Fatalf("after %s: want a typed panic, got %v", key, err)
			}
		case 3:
			// A genuine mid-run snapshot of this spec with one event no
			// component owns: every component loads, then the engine
			// refuses it.
			m, err := r.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunControlled(machine.RunControl{Until: 2000}); !errors.Is(err, machine.ErrPaused) {
				t.Fatalf("%s: want a pause, got %v", key, err)
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			m.Release()
			snap.Engine.Events = append(snap.Engine.Events, sim.EventState{At: snap.Engine.Now + 1, Desc: sim.EventDesc{Comp: 200}})
			var log bytes.Buffer
			r.Ckpt, r.Log = CheckpointPolicy{Dir: t.TempDir()}, &log
			if err := machine.WriteSnapshotFile(r.ckptPath(r.Key(s)), snap); err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(s)
			r.Ckpt, r.Log = CheckpointPolicy{}, nil
			if err != nil {
				t.Fatalf("%s from a corrupt checkpoint: %v", key, err)
			}
			if !strings.Contains(log.String(), "unusable") {
				t.Fatalf("%s: the Runner did not refuse the corrupt checkpoint:\n%s", key, log.String())
			}
			if res.Checksum() != golden[key] {
				t.Errorf("%s from a corrupt checkpoint: checksum %s, quick.json has %s", key, res.Checksum(), golden[key])
			}
		}
		res, err := r.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got := res.Checksum(); got != golden[key] {
			t.Errorf("%s on a pooled machine: checksum %s, quick.json has %s", key, got, golden[key])
		}
	}
}

// TestRunnerReusesMachines: a Runner's second run, of another 8-CPU
// spec, takes the machine its first run released and pays for its
// workload and its result, not a construction. The first run is cold:
// the test holds as many 8-CPU machines as may wait, so none does. The
// warm run must cost less than half
// the cold one and stay under a ceiling of what the commit that set it
// measured with go1.24 on amd64 (417 960 B cold, 82 936 B warm) plus a
// quarter; before machines were pooled a run cost ~417 KB either way.
func TestRunnerReusesMachines(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := Quick()
	r := NewRunner(p)
	cold, warm := RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: p.LargeCache, LineSize: 8},
		RunSpec{Bench: BGauss, Model: consistency.RC, CacheSize: p.LargeCache, LineSize: 8}
	held := make([]*machine.Machine, runtime.GOMAXPROCS(0))
	for i := range held {
		m, err := r.Build(cold)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = m
	}
	bytesOf := func(s RunSpec) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Run(s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	coldB := bytesOf(cold)
	warmB := bytesOf(warm)
	for _, m := range held {
		m.Release()
	}
	t.Logf("cold run %d B, warm run %d B", coldB, warmB)
	const ceiling = 103_670
	if warmB >= coldB/2 || warmB > ceiling {
		t.Errorf("a warm run allocates %d B after a cold one's %d B; want under half of that and under %d B", warmB, coldB, ceiling)
	}
}
