package machine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/robust"
	"memsim/internal/sim"
	"memsim/internal/workloads"
)

// testdata/pending.json pins what a snapshot SAYS, pending events
// included, so a change to how events are scheduled can be held to
// "the saved state did not move": Psim at the quick preset under SC1,
// RC and TSO with the watchdog and the invariant checker armed (faults
// on under RC, a one-entry network buffer under TSO), stopped at twenty
// seeded points each — a seeded cycle, then event by event until the
// queue holds an event kind that configuration has not shown yet (or
// forty events have passed). Per point: the SHA-256 of the engine state
// and of the whole snapshot, and per configuration the checksum every
// one of its snapshots must resume to, through a file, in a new
// machine. Between them the points show all eleven event kinds.
//
// The hashes are over the JSON rendering, not gob's: gob numbers types
// in the order a process first meets them, so its bytes depend on which
// tests ran before. JSON carries the same exported fields by name.
//
// The table was regenerated when processors got their fixed place in
// the cycle and the spin ghost (the twelfth kind, {CompCPU, 2}) went:
// every cycle count moved, and a spin park stopped being an event. It
// was regenerated again when network ports began to free themselves
// lazily: kind {CompNet, 2} went from one free event per port service
// to one wake per port with a queue, and saved ports record the cycle
// they free instead of a busy flag. Regenerate after an intentional change to simulated timing or to a
// saved type:
//
//	go test ./internal/machine -run TestPendingPinned -update

var updatePending = flag.Bool("update", false, "rewrite testdata/pending.json from the current simulator")

const pendingPinPath = "testdata/pending.json"

type pendingPoint struct {
	Cycle    uint64 `json:"cycle"`
	Steps    uint64 `json:"steps"`
	Engine   string `json:"engine_sha256"`
	Snapshot string `json:"snapshot_sha256"`
}

type pendingPin struct {
	Checksum string         `json:"checksum"`
	Points   []pendingPoint `json:"points"`
}

// eventKinds names every (component, kind) pair a saved event can
// carry; the numbers are part of the snapshot format.
var eventKinds = map[[2]uint8]string{
	{sim.CompCPU, 1}:   "cpu run",
	{sim.CompCache, 1}: "cache bind", {sim.CompCache, 2}: "cache fill",
	{sim.CompModule, 1}: "module unbusy", {sim.CompModule, 2}: "module head",
	{sim.CompNet, 1}: "net advance", {sim.CompNet, 2}: "net wake", {sim.CompNet, 3}: "net space",
	{sim.CompMachine, 1}: "machine tail", {sim.CompMachine, 2}: "machine watchdog", {sim.CompMachine, 3}: "machine check",
}

func jsonSHA(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestPendingPinned(t *testing.T) {
	const points, hunt = 20, 40
	p := experiments.Quick()
	w := workloads.Psim(p.Procs, p.PsimPorts, p.PsimRefs, p.Seed)
	got := make(map[string]pendingPin)
	seenAll := map[string]bool{}
	for _, c := range []struct {
		model  consistency.Model
		faults robust.Faults
		netBuf int
	}{
		{consistency.SC1, robust.Faults{}, 0},
		{consistency.RC, abFaults, 0},
		{consistency.TSO, robust.Faults{}, 1},
	} {
		build := func() *machine.Machine {
			m, err := machine.New(machine.Config{Procs: w.Procs, Model: c.model, CacheSize: p.SmallCache, LineSize: 64,
				LoadDelay: p.LoadDelay, SharedWords: w.SharedWords, NetBuf: c.netBuf,
				StallCycles: 5000, CheckEvery: 499, Faults: c.faults}, w.Programs)
			if err != nil {
				t.Fatal(err)
			}
			w.Setup(m.Shared())
			return m
		}
		full, err := build().Run(0)
		if err != nil {
			t.Fatalf("%v: uninterrupted run: %v", c.model, err)
		}
		pin := pendingPin{Checksum: full.Checksum()}
		rng := rand.New(rand.NewSource(p.Seed + int64(c.model)))
		seen := map[string]bool{}
		path := t.TempDir() + "/pending.mcsp"
		for i := 0; i < points; i++ {
			m := build()
			at := 1 + uint64(rng.Int63n(int64(full.Cycles-1)))
			if _, err := m.RunControlled(machine.RunControl{Until: at}); !errors.Is(err, machine.ErrPaused) {
				t.Fatalf("%v: run to cycle %d: want ErrPaused, got %v", c.model, at, err)
			}
			for k := 0; ; k++ {
				es, err := m.Eng.Save()
				if err != nil {
					t.Fatal(err)
				}
				fresh := false
				for _, ev := range es.Events {
					name, ok := eventKinds[[2]uint8{ev.Desc.Comp, ev.Desc.Kind}]
					if !ok {
						t.Fatalf("%v: cycle %d: pending event %+v of no known kind", c.model, es.Now, ev.Desc)
					}
					fresh = fresh || !seen[name]
					seen[name], seenAll[name] = true, true
				}
				if fresh || k == hunt || m.Done() || !m.Eng.Step() {
					break
				}
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("%v: snapshot at cycle %d: %v", c.model, m.Eng.Now(), err)
			}
			pin.Points = append(pin.Points, pendingPoint{Cycle: snap.Engine.Now, Steps: snap.Engine.Steps,
				Engine: jsonSHA(t, snap.Engine), Snapshot: jsonSHA(t, snap)})

			if err := machine.WriteSnapshotFile(path, snap); err != nil {
				t.Fatal(err)
			}
			read, err := machine.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m2 := build()
			if err := m2.Restore(read); err != nil {
				t.Fatalf("%v: restore at cycle %d: %v", c.model, snap.Engine.Now, err)
			}
			if res, err := m2.Run(0); err != nil {
				t.Errorf("%v: run resumed from cycle %d: %v", c.model, snap.Engine.Now, err)
			} else if sum := res.Checksum(); sum != pin.Checksum {
				t.Errorf("%v: run resumed from cycle %d ends on %s, uninterrupted on %s", c.model, snap.Engine.Now, sum, pin.Checksum)
			}
		}
		got[c.model.String()] = pin
		t.Logf("%v: pending kinds shown: %s", c.model, strings.Join(sortedKeys(seen), ", "))
	}
	for _, name := range eventKinds {
		if !seenAll[name] {
			t.Errorf("no pause point has a pending %q event", name)
		}
	}

	if *updatePending {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pendingPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d configurations to %s", len(got), pendingPinPath)
		return
	}
	data, err := os.ReadFile(pendingPinPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]pendingPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", pendingPinPath, err)
	}
	for name, g := range got {
		w := want[name]
		if g.Checksum != w.Checksum {
			t.Errorf("%s: run ends on %s, pinned %s", name, g.Checksum, w.Checksum)
		}
		if len(g.Points) != len(w.Points) {
			t.Fatalf("%s: %d pause points, table has %d", name, len(g.Points), len(w.Points))
		}
		for i, pt := range g.Points {
			if pt != w.Points[i] {
				t.Errorf("%s point %d: snapshot says %s, pinned %s", name, i, fmt.Sprint(pt), fmt.Sprint(w.Points[i]))
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
