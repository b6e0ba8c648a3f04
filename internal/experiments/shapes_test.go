package experiments

import (
	"strings"
	"testing"

	"memsim/internal/consistency"
)

// The shape tests assert the paper's qualitative claims (§4-§5) at the
// quick preset. They are deliberately lenient: absolute numbers depend
// on the scaled-down substrate, but orderings and signs should hold.

// sharedQuick memoizes simulation runs across all shape tests in this
// package; the grids overlap heavily.
var sharedQuick = NewRunner(Quick())

func quickRunner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment grids are not short")
	}
	return sharedQuick
}

func TestShapeFigure4SmallCache(t *testing.T) {
	r := quickRunner(t)
	f, err := RunFigure4(r)
	if err != nil {
		t.Fatal(err)
	}
	smallLine := r.Params.LineSizes[0]
	bigLine := r.Params.LineSizes[len(r.Params.LineSizes)-1]

	// Gauss: biggest relaxed gains at the smallest line size (lowest
	// hit rate), and the gain ordering across line sizes.
	g := f.GainPct[BGauss][consistency.WO1]
	if g[smallLine] < 10 {
		t.Errorf("Gauss WO1 gain at %dB = %.1f%%, want >= 10%%", smallLine, g[smallLine])
	}
	if g[smallLine] <= g[bigLine] {
		t.Errorf("Gauss WO1 gain not decreasing with line size: %v", g)
	}

	// Qsort: substantial gains at small lines (capacity-bound).
	q := f.GainPct[BQsort][consistency.WO1]
	if q[smallLine] < 8 {
		t.Errorf("Qsort WO1 gain = %.1f%%, want >= 8%%", q[smallLine])
	}

	// WO1 ~= RC everywhere (paper §4.2.2), and WO2 ~= WO1 (§4.2.3).
	// Qsort gets wide tolerances: its dynamic scheduling means any
	// model change reshuffles the work partition (the paper observed a
	// third more sync operations just moving from WO1 to WO2, §3.3).
	for _, bench := range Benches {
		tol := 5.0
		if bench == BQsort {
			tol = 10
		}
		for _, line := range r.Params.LineSizes {
			wo1 := f.GainPct[bench][consistency.WO1][line]
			rc := f.GainPct[bench][consistency.RC][line]
			wo2 := f.GainPct[bench][consistency.WO2][line]
			if diff := rc - wo1; diff < -tol || diff > tol+3 {
				t.Errorf("%s/%dB: RC (%.1f) far from WO1 (%.1f)", bench, line, rc, wo1)
			}
			if diff := wo2 - wo1; diff < -tol || diff > tol {
				t.Errorf("%s/%dB: WO2 (%.1f) far from WO1 (%.1f)", bench, line, wo2, wo1)
			}
		}
	}
}

func TestShapeFigure5LargeCacheGainsShrink(t *testing.T) {
	r := quickRunner(t)
	small, err := RunFigure4(r)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunFigure5(r)
	if err != nil {
		t.Fatal(err)
	}
	// Gauss's data fits the large cache: relaxed gains collapse
	// (paper: under 2%; allow a little slack at quick scale).
	line := r.Params.LineSizes[0]
	gs := small.GainPct[BGauss][consistency.WO1][line]
	gl := large.GainPct[BGauss][consistency.WO1][line]
	if gl >= gs {
		t.Errorf("Gauss WO1 gain did not shrink with the large cache: %.1f -> %.1f", gs, gl)
	}
	if gl > 8 {
		t.Errorf("Gauss WO1 large-cache gain = %.1f%%, want small", gl)
	}
	// Qsort fits neither cache: its gain survives.
	ql := large.GainPct[BQsort][consistency.WO1][line]
	if ql < 5 {
		t.Errorf("Qsort WO1 large-cache gain = %.1f%%, want >= 5%%", ql)
	}
}

func TestShapeFigure7BlockingLoads(t *testing.T) {
	r := quickRunner(t)
	f, err := RunFigure7(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range Benches {
		for _, line := range r.Params.LineSizes {
			sc1 := f.GainPct[bench][consistency.SC1][line]
			bwo1 := f.GainPct[bench][consistency.BWO1][line]
			wo1 := f.GainPct[bench][consistency.WO1][line]
			// Non-blocking loads never hurt: WO1 >= bWO1 (tolerance
			// for dynamic-scheduling noise in Qsort).
			tol := 1.5
			if bench == BQsort {
				tol = 6
			}
			if wo1 < bwo1-tol {
				t.Errorf("%s/%dB: WO1 (%.1f) below bWO1 (%.1f)", bench, line, wo1, bwo1)
			}
			// SC1 vs bSC1: non-blocking loads have little effect on SC
			// (paper §5.1: "basically the same").
			if sc1 < -tol-2 {
				t.Errorf("%s/%dB: SC1 much slower than bSC1 (%.1f%%)", bench, line, sc1)
			}
		}
	}
}

func TestShapeFigure9ScheduleQuality(t *testing.T) {
	r := quickRunner(t)
	f, err := RunFigure9(r)
	if err != nil {
		t.Fatal(err)
	}
	line := r.Params.LineSizes[0] // 8B: exactly one stencil load misses
	cache := r.Params.SmallCache
	// SC1: the bad schedule (miss first) must cost time.
	scBad := f.ChangePct[consistency.SC1][cache][line]["bad"]
	if scBad > -0.5 {
		t.Errorf("SC1 bad schedule gained %.1f%%, want a clear loss", scBad)
	}
	// WO1: the optimal schedule (miss first) must not lose, and should
	// beat WO1's bad schedule, to within the noise the order of a cycle's
	// events puts on a run this short (a tolerance, as in Figure 7): over
	// Relax grids of 24 to 40 rows, optimal minus bad spans -2.3 to +3.0
	// points even while network ports freed with events of their own
	// (EXPERIMENTS.md, Figure 9).
	woOpt := f.ChangePct[consistency.WO1][cache][line]["optimal"]
	woBad := f.ChangePct[consistency.WO1][cache][line]["bad"]
	if woOpt < woBad-2.5 {
		t.Errorf("WO1 optimal (%.1f%%) below bad (%.1f%%)", woOpt, woBad)
	}
}

func TestShapeTables3to6Delays(t *testing.T) {
	r := quickRunner(t)
	tab, err := RunTables3to6(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Benches)*2*2 {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(Benches)*2*2)
	}
	for _, row := range tab.Rows {
		for _, line := range r.Params.LineSizes {
			rel := row.RelPct[line]
			if rel < -25 || rel > 60 {
				t.Errorf("%s cache%dK delay%d line%d: unreasonable relative benefit %.1f%%",
					row.Bench, row.CacheSize>>10, row.Delay, line, rel)
			}
		}
	}
	// The text must render every row.
	s := tab.String()
	if !strings.Contains(s, "Gauss") || !strings.Contains(s, "delay") {
		t.Error("Tables3to6 text missing content")
	}
}

func TestShapeTable2Statistics(t *testing.T) {
	r := quickRunner(t)
	tab, err := RunTable2(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	p := r.Params
	for _, row := range tab.Rows {
		if row.ReadsK <= 0 || row.WritesK <= 0 {
			t.Errorf("%s: empty reference counts", row.Bench)
		}
		for cl, hit := range row.HitPct {
			if hit < 5 || hit > 100 {
				t.Errorf("%s %v: hit rate %.1f%% out of range", row.Bench, cl, hit)
			}
		}
		// Larger lines improve the hit rate for the spatial-locality
		// benchmarks at the small cache (Gauss, Relax).
		if row.Bench == BGauss || row.Bench == BRelax {
			lo := row.HitPct[CL{p.SmallCache, p.LineSizes[0]}]
			hi := row.HitPct[CL{p.SmallCache, p.LineSizes[len(p.LineSizes)-1]}]
			if hi <= lo {
				t.Errorf("%s: hit rate not improved by larger lines: %.1f -> %.1f", row.Bench, lo, hi)
			}
		}
	}
	if s := tab.String(); !strings.Contains(s, "Table 9") {
		t.Error("Table 2 text missing appendix")
	}
}

func TestShapeFigure2RunTimes(t *testing.T) {
	r := quickRunner(t)
	f, err := RunFigure2(r)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Params
	// Gauss with the large cache must be much faster than with the
	// small cache at the smallest line (the fits-in-cache effect).
	small := f.Cycles[BGauss][CL{p.SmallCache, p.LineSizes[0]}]
	large := f.Cycles[BGauss][CL{p.LargeCache, p.LineSizes[0]}]
	if large >= small {
		t.Errorf("Gauss: large cache (%d) not faster than small (%d)", large, small)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := quickRunner(t)
	spec := RunSpec{Bench: BRelax, Model: consistency.SC1,
		CacheSize: r.Params.SmallCache, LineSize: 8}
	a, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Error("memoized result differs")
	}
}

func TestPresetsSane(t *testing.T) {
	for _, p := range []Params{Quick(), Scaled(), Paper()} {
		if p.Procs < 2 || p.SmallCache >= p.LargeCache {
			t.Errorf("%s: bad machine sizes %+v", p.Name, p)
		}
		if len(p.LineSizes) == 0 {
			t.Errorf("%s: no line sizes", p.Name)
		}
		if p.GaussN < p.Procs || p.RelaxN < p.Procs {
			t.Errorf("%s: problem smaller than machine", p.Name)
		}
		// Gauss's defining property: the matrix exceeds the small cache
		// per processor but fits the large one (paper §4.1.1).
		perProc := p.GaussN * p.GaussN * 8 / p.Procs
		if perProc <= p.SmallCache {
			t.Errorf("%s: Gauss fits the small cache (%d <= %d)", p.Name, perProc, p.SmallCache)
		}
		if perProc > p.LargeCache {
			t.Errorf("%s: Gauss does not fit the large cache (%d > %d)", p.Name, perProc, p.LargeCache)
		}
		// Relax's defining property: three rows fit the small cache.
		if rows := 3 * (p.RelaxN + 2) * 8; rows > p.SmallCache {
			t.Errorf("%s: Relax reuse window (%dB) exceeds the small cache", p.Name, rows)
		}
		// Qsort's: the array exceeds even the large cache.
		if p.QsortN*8 <= p.LargeCache {
			t.Errorf("%s: Qsort fits the large cache", p.Name)
		}
	}
}

func TestRunSpecDescribe(t *testing.T) {
	s := RunSpec{Bench: BRelax, Model: 0, CacheSize: 2048, LineSize: 8, LoadDelay: 2, MSHRs: 3}
	d := describe(s)
	for _, want := range []string{"Relax", "cache2K", "line8", "delay2", "mshr3"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe(%+v) = %q missing %q", s, d, want)
		}
	}
}
