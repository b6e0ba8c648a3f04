package main

import (
	"io"
	"regexp"
	"slices"
	"testing"
	"time"
)

func loadForTest(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFile holds BENCHMARK.json to the harness: its workloads
// are the ones the harness runs, its names are well formed, its bounds
// are in range, and every per-layer metric has an entry in layerMoves
// whose prediction, unless it is the empty one of a reading or an
// invariant, names end-to-end metrics and workloads that exist.
func TestBenchmarkFile(t *testing.T) {
	bf := loadForTest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloadDefs) || len(bf.Workloads) > 8 {
		t.Fatalf("%d workloads listed, the harness runs %d", len(bf.Workloads), len(workloadDefs))
	}
	var workloads []string
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q, the harness runs %q there", i, w.Name, workloadDefs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		workloads = append(workloads, w.Name)
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	var endToEnd []string
	for _, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must lie in (0, 0.25]", m.Name)
		}
		endToEnd = append(endToEnd, m.Name)
	}
	if !slices.Contains(endToEnd, "setup_s") {
		t.Error("no setup_s among the end-to-end metrics")
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range bf.PerLayer {
		checkName(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		mv, ok := layerMoves[m.Name]
		if !ok {
			t.Errorf("%s: no prediction in layerMoves", m.Name)
			continue
		}
		if (len(mv.metrics) == 0) != (len(mv.workloads) == 0) {
			t.Errorf("%s: a prediction names metrics and workloads, or neither", m.Name)
		}
		for _, e := range mv.metrics {
			if !slices.Contains(endToEnd, e) {
				t.Errorf("%s: predicted to move %q, which is no end-to-end metric", m.Name, e)
			}
		}
		for _, w := range mv.workloads {
			if !slices.Contains(workloads, w) {
				t.Errorf("%s: predicted to move %q, which is no workload", m.Name, w)
			}
		}
	}
	if len(layerMoves) != len(bf.PerLayer) {
		t.Errorf("layerMoves has %d entries for %d per-layer metrics", len(layerMoves), len(bf.PerLayer))
	}
}

// TestSmoke runs every workload's smoke size end to end and traced:
// nothing fails, every listed metric is reported, and the end-to-end
// ones are never zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	bf := loadForTest(t)
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			o := options{workload: def.name, seed: goldenSeed, smoke: true, trace: trace, out: t.TempDir()}
			line, err := measure(o, def, bf, time.Now(), io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", def.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d operations failed", def.name, trace, line.Failed, line.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, %d listed", def.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s missing or in unit %q", def.name, trace, m.Name, got.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", def.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestExactCounts: two passes over identical inputs agree exactly on
// the simulated counts and on the digest of their outputs, at a seed
// with no golden corpus behind it.
func TestExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, def := range workloadDefs {
		p, err := def.prepare(options{seed: 7, smoke: true, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		a, errA := p.pass(nil)
		b, errB := p.pass(newTracer())
		p.close()
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", def.name, errA, errB)
		}
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: failed operations: %s %s", def.name, a.firstFailure, b.firstFailure)
		}
		if a.counts != b.counts {
			t.Errorf("%s: counts differ between passes:\n%+v\n%+v", def.name, a.counts, b.counts)
		}
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: output digests %q and %q", def.name, a.digest, b.digest)
		}
		if def.name != "conformance" && (a.counts.events == 0 || a.counts.instrs == 0 || a.counts.accesses == 0) {
			t.Errorf("%s: empty counts %+v", def.name, a.counts)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if pct, v, ok := tailPercentile(make([]float64, 10)); ok {
		t.Errorf("ten samples have no percentile with ten beyond it, got p%v = %v", pct, v)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v, ok := tailPercentile(xs); !ok || pct != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%v at %v, want p90 at 90", pct, v)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "root")
	a := tr.begin(root, "child")
	tr.end(a)
	tr.end(root)
	// Overlapping children, as two concurrent clients make them, cover
	// their union once.
	tr.spans[root].start, tr.spans[root].end = 0, 100
	tr.spans[a].start, tr.spans[a].end = 10, 50
	b := tr.beginLane(root, "child", 2)
	tr.spans[b].start, tr.spans[b].end = 30, 70
	self := tr.selfTimes()
	if got := self["root"] * 1e9; got != 40 {
		t.Errorf("root self time %v ns, want 40", got)
	}
	if got := self["child"] * 1e9; got != 80 {
		t.Errorf("children self time %v ns, want 80", got)
	}
}
