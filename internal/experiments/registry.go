package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one table or figure of the report: what sweep runs
// under its ID and WriteMarkdown prints under its Title, with the
// paper's claim and this reproduction's assessment beside the
// measured block.
type Experiment struct {
	ID         string
	Title      string
	Run        func(*Runner) (fmt.Stringer, error)
	Paper      string
	Assessment string
}

// stringer adapts a RunX function to Experiment.Run.
func stringer[T fmt.Stringer](run func(*Runner) (T, error)) func(*Runner) (fmt.Stringer, error) {
	return func(r *Runner) (fmt.Stringer, error) {
		t, err := run(r)
		if err != nil {
			return nil, err
		}
		return t, nil
	}
}

// Experiments lists every experiment of `sweep -all` and of the report,
// in their order. The claims are the paper's (§§3.3-5.3) and fixed.
var Experiments = []Experiment{
	{"t2", "Table 2 (and appendix Tables 7–9): benchmark statistics", stringer(RunTable2),
		"Gauss: low hit rates at the small cache (64–94% by line size) but uniformly high at the large cache — the matrix fits 64K, not 16K. Qsort: hit rates 69–81% at *both* caches (working set fits neither). Relax: hit rate set by the line size, nearly independent of cache size. Psim: ~90% hit rate regardless of configuration; write hit rates well below read hit rates everywhere because a write to a Shared line is a write miss under directory coherence.",
		"Measured hit rates reproduce every relationship: Gauss improves sharply with the large cache, Qsort barely moves, Relax tracks line size, Psim stays flat; write hit rates sit well below read hit rates."},
	{"f2", "Figure 2: SC1 run time by line size", stringer(RunFigure2),
		"Larger lines speed up Gauss dramatically at 16K (~50% from 8B to 64B) but barely matter at 64K. Qsort is *slowest* at 64B lines despite higher hit rates (long lines cost network/memory occupancy). Psim's run time grows with line size (latency proportional to line size under heavy sharing).",
		"Gauss gains strongly from longer lines at the small cache and little at the large; Qsort and Psim pay for 64-byte lines exactly as the paper describes."},
	{"f4", "Figure 4: % gain over SC1, small cache", stringer(RunFigure4),
		"Gains of 1–36% depending mostly on benchmark and line size. Gauss: largest gains at 8B lines (lowest hit rate), shrinking as lines grow. Qsort: 13–18%. Relax: ≤5% (the natural schedule already hides most latency). Psim: ~8–10%, driven by its inflated latency from sharing, with SC2 capable of *hurting* at 64B lines. No major difference among WO1/WO2/RC.",
		"Orderings hold: Gauss gains fall monotonically with line size; Qsort's gains are large at both caches; Relax's default schedule gains the least of the high-miss benchmarks; WO1 ≈ WO2 ≈ RC within a few points everywhere."},
	{"f5", "Figure 5: % gain over SC1, large cache", stringer(RunFigure5),
		"Gauss's gains collapse below 2% once the matrix fits in the cache; Qsort's gains persist (13–18%); Relax and Psim change little from the 16K results.",
		"Gauss's relaxed-model benefit collapses at the large cache while Qsort's persists — the paper's central 'hit rate is the best predictor' point."},
	{"f6", "Figure 6: Gauss at 32 processors", stringer(RunFigure6),
		"same trends as 16 processors with slightly higher benefit per line size (one extra network stage raises memory latency: 18 → 20 cycles); 64K gains stay under 2%.",
		"the small-cache gains remain ordered by line size and exceed the 16-processor gains slightly; the large-cache gains are small."},
	{"f7", "Figure 7: blocking loads, small cache", stringer(RunFigure7),
		"bSC1 ≈ SC1 (non-blocking loads alone barely help a sequentially consistent machine). Relax: bWO1 ≈ bSC1 — almost all of WO1's benefit on Relax is *read* latency, so blocking loads forfeit it. Psim: bWO1 keeps 75–85% of WO1's gain (mostly write latency hidden). Gauss 16K: mostly write latency.",
		"SC1 tracks bSC1 closely; WO1 beats bWO1 most on the read-latency-bound benchmarks, least where write latency dominates — the paper's §5.1 decomposition."},
	{"f8", "Figure 8: blocking loads, large cache", stringer(RunFigure8),
		"Same decomposition at 64K; Gauss's differences become noise because there is almost no latency left to hide.",
		"With the large cache the absolute spreads compress, as in the paper."},
	{"f9", "Figure 9: Relax schedule quality", stringer(RunFigure9),
		"Hand-scheduling the nine stencil loads moves run time by up to ~8%, and the optimal order depends on the model: SC wants the missing load issued last (other loads would stall behind it), weak ordering wants it first (maximum overlap distance). A deliberately bad schedule costs real time.",
		"The signs flip exactly as predicted: miss-first hurts SC1 and helps WO1; miss-last (≈ the compiler's natural raster order) is SC1's best order. The best schedule depends on the consistency model — the paper's §5.2 conclusion."},
	{"t3-6", "Tables 3–6: two- vs four-cycle load/branch delays", stringer(RunTables3to6),
		"WO1's absolute benefit over SC1 is of the same magnitude at both delays for every benchmark; relative percentages shift (shorter delays shrink total run time), but the conclusions are unchanged.",
		"Absolute benefits at delay 2 and delay 4 stay within the same magnitude per configuration; no conclusion flips."},
	{"rwo", "Extension: read-with-ownership Qsort (paper §3.3 discussion)", stringer(RunAblationRWO),
		"The paper argues a read-with-ownership request would recover Qsort's write hit rate (its bus-based predecessor study saw ~100%), but that the compiler must know which reads precede writes.",
		"With LDX on the read-before-swap loads, Qsort's write hit rate rises sharply, confirming the paper's diagnosis of where its write misses come from."},
	{"mshr", "Extension: WO1 MSHR count", stringer(RunAblationMSHR),
		"The paper fixes five MSHRs and calls the lockup-free cache's cost 'significant'; this sweep locates the knee of the benefit curve.",
		"Most of WO1's benefit arrives by 2–3 MSHRs; five (the paper's choice) sits past the knee."},
	{"zoo", "Extension: model zoo (TSO, PSO, PC)", stringer(RunZoo),
		"Not in the paper. The commercial store-buffer models — TSO (FIFO write buffer, blocking loads), PSO (per-line buffer retirement), PC (TSO's buffer with non-blocking loads) — on the paper's grid, compared against SC1 like Figures 4–5 and Table 9.",
		"The write buffer alone recovers a large share of weak ordering's gain on the miss-dominated benchmarks; PC's non-blocking loads recover the read latency TSO forfeits (most striking on Relax, whose relaxed-model benefit Figure 7 showed to be nearly all read latency: TSO gains almost nothing, PC matches WO1); and on sync-heavy Psim the buffer's drain at every sync point can cost slightly more than it buys — the paper's §5 caveat about buffering under frequent synchronization."},
}

// scaling is reached only by its id: its 128/256-processor runs take
// minutes even at the quick preset, so it is in neither -all nor the
// report.
var scaling = Experiment{ID: "scaling", Run: stringer(RunScaling)}

// ExperimentIDs lists every id LookupExperiment resolves, in order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
	}
	return append(ids, scaling.ID)
}

// LookupExperiment resolves an experiment id.
func LookupExperiment(id string) (Experiment, error) {
	if id == scaling.ID {
		return scaling, nil
	}
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ExperimentIDs(), ", "))
}
