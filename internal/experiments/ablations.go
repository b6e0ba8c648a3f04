package experiments

import (
	"fmt"
	"strings"

	"memsim/internal/consistency"
)

// This file holds the extension experiments beyond the paper's own
// tables and figures: ablations of design points the paper discusses
// qualitatively but does not measure.

// AblationRWO measures the read-with-ownership optimization the paper
// motivates in §3.3 while explaining Qsort's low write hit rates: with
// LDX, array loads that precede swaps fetch their lines exclusively so
// the stores hit.
type AblationRWO struct {
	Params Params
	Rows   []RWORow
}

// RWORow compares Qsort and QsortRWO for one (model, line) cell.
type RWORow struct {
	Model        consistency.Model
	LineSize     int
	BaseCycles   uint64
	RWOCycles    uint64
	GainPct      float64
	BaseWriteHit float64 // percent
	RWOWriteHit  float64
}

// RunAblationRWO runs the grid at the small cache size.
func RunAblationRWO(r *Runner) (*AblationRWO, error) {
	p := r.Params
	out := &AblationRWO{Params: p}
	for _, model := range []consistency.Model{consistency.SC1, consistency.WO1, consistency.RC} {
		for _, line := range p.LineSizes {
			base, err := r.Run(RunSpec{Bench: BQsort, Model: model, CacheSize: p.SmallCache, LineSize: line})
			if err != nil {
				return nil, err
			}
			rwo, err := r.Run(RunSpec{Bench: BQsortRWO, Model: model, CacheSize: p.SmallCache, LineSize: line})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, RWORow{
				Model:        model,
				LineSize:     line,
				BaseCycles:   uint64(base.Cycles),
				RWOCycles:    uint64(rwo.Cycles),
				GainPct:      100 * rwo.GainOver(base),
				BaseWriteHit: 100 * base.WriteHitRate(),
				RWOWriteHit:  100 * rwo.WriteHitRate(),
			})
		}
	}
	return out, nil
}

func (a *AblationRWO) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: Qsort read-with-ownership (cache %dK, %s preset)\n",
		a.Params.SmallCache>>10, a.Params.Name)
	fmt.Fprintf(&sb, "%-5s %5s | %10s %10s %7s | %9s %9s\n",
		"Model", "line", "base(cyc)", "rwo(cyc)", "gain", "wr-hit", "wr-hit+rwo")
	for _, row := range a.Rows {
		fmt.Fprintf(&sb, "%-5s %4dB | %10d %10d %6.1f%% | %8.1f%% %8.1f%%\n",
			row.Model, row.LineSize, row.BaseCycles, row.RWOCycles, row.GainPct,
			row.BaseWriteHit, row.RWOWriteHit)
	}
	return sb.String()
}

// AblationMSHR measures how the relaxed models' benefit scales with
// the number of MSHRs (the paper fixes five; §3.2 calls the hardware
// cost "significant", so the knee of this curve is the design point).
type AblationMSHR struct {
	Params Params
	Bench  Bench
	Line   int
	// CyclesByMSHR[mshrs] for WO1; Baseline is SC1 (1 outstanding).
	CyclesByMSHR map[int]uint64
	Baseline     uint64
}

// MSHRCounts is the sweep grid.
var MSHRCounts = []int{1, 2, 3, 5, 8}

// RunAblationMSHR sweeps the WO1 MSHR count on Gauss at the smallest
// line size and small cache (the highest-miss-rate configuration).
func RunAblationMSHR(r *Runner) (*AblationMSHR, error) {
	p := r.Params
	line := p.LineSizes[0]
	out := &AblationMSHR{
		Params: p, Bench: BGauss, Line: line,
		CyclesByMSHR: map[int]uint64{},
	}
	base, err := r.Run(RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: p.SmallCache, LineSize: line})
	if err != nil {
		return nil, err
	}
	out.Baseline = uint64(base.Cycles)
	for _, n := range MSHRCounts {
		res, err := r.Run(RunSpec{Bench: BGauss, Model: consistency.WO1,
			CacheSize: p.SmallCache, LineSize: line, MSHRs: n})
		if err != nil {
			return nil, err
		}
		out.CyclesByMSHR[n] = uint64(res.Cycles)
	}
	return out, nil
}

func (a *AblationMSHR) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: WO1 MSHR count, %s %dB lines, cache %dK (%s preset)\n",
		a.Bench, a.Line, a.Params.SmallCache>>10, a.Params.Name)
	fmt.Fprintf(&sb, "  SC1 baseline: %d cycles\n", a.Baseline)
	for _, n := range MSHRCounts {
		c := a.CyclesByMSHR[n]
		gain := 100 * (float64(a.Baseline) - float64(c)) / float64(a.Baseline)
		fmt.Fprintf(&sb, "  %d MSHRs: %10d cycles  (%.1f%% over SC1)\n", n, c, gain)
	}
	return sb.String()
}
