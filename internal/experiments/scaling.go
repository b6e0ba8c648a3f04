package experiments

// The machine-size scaling experiment. The paper's grid stops at 16
// (and, for Figure 6, 32) processors; this experiment pushes the same
// SC-versus-RC comparison out to 256, where the radix-4 Omega network
// runs at four stages, directory sharer sets span multiple words, and
// barrier spins dominate unless the idle-skip engine leaps them. The
// gap between SC1 and RC widens with machine size: each extra network
// stage stretches every miss, and under SC every stretched miss stalls
// the processor in full.
//
// Workloads scale with the machine (the runner grows grids, matrices
// and psim's simulated network so every processor owns real work), so
// the comparison is weak-scaling: per-processor work is roughly fixed
// while sharing and synchronization intensify.

import (
	"fmt"
	"strings"
	"time"

	"memsim/internal/consistency"
)

// ScalingSizes are the machine sizes the scaling experiment visits.
var ScalingSizes = []int{16, 32, 64, 128, 256}

// scalingMaxProcs caps each benchmark's largest size. Gauss stops at
// 128: its minimum legal problem at 256 processors (one matrix row
// per processor) runs hundreds of millions of simulated cycles
// because the per-column lock-based barrier serializes 256
// acquisitions 255 times — a real property of the machine, but far
// too expensive for a sweep experiment. Psim, the paper's
// synchronization-heavy benchmark, carries the curve to 256.
var scalingMaxProcs = map[Bench]int{BGauss: 128, BPsim: 256}

// scalingEventBudget is the per-run event ceiling the experiment
// guarantees itself: psim at 256 processors retires billions of
// engine events even with spin fast-forward, more than the quick
// preset's budget allows.
const scalingEventBudget = 5_000_000_000

// ScalingPoint is one (bench, procs) measurement.
type ScalingPoint struct {
	Procs        int
	SCCycles     uint64  // SC1 run time
	RCCycles     uint64  // RC run time
	GainPct      float64 // 100 * (SC1 - RC) / SC1
	SCMWPI       float64
	RCMWPI       float64
	Events       uint64  // engine events of the SC1 run
	WallSecs     float64 // host seconds for the SC1 run (0 on a journal replay)
	EventsPerSec float64
	CyclesPerSec float64
}

// ScalingFigure holds the SC-vs-RC gap as a function of machine size.
type ScalingFigure struct {
	Params    Params
	CacheSize int
	LineSize  int
	Points    map[Bench][]ScalingPoint
}

// RunScaling measures SC1 and RC on Gauss and Psim at every size in
// ScalingSizes. Wall-clock rates are measured around the SC1 run (the
// stall-heavy direction that the idle-skip engine accelerates); they
// are reported for orientation and are not part of any checksum.
func RunScaling(r *Runner) (*ScalingFigure, error) {
	p := r.Params
	if p.MaxEvents < scalingEventBudget {
		// Derive a runner with a raised event ceiling. The big sizes are
		// unique to this experiment, so no memoization is lost.
		p.MaxEvents = scalingEventBudget
		r = r.WithParams(p)
	}
	// The smallest line size is the one that separates the models:
	// with big lines these workloads hit 95-99% and there is almost no
	// miss latency for a relaxed model to hide — SC1 and RC agree to a
	// fraction of a percent at every machine size. Small lines keep
	// the miss rate (and so the consistency model's stall exposure)
	// high enough that the gap and its growth are visible.
	f := &ScalingFigure{
		Params:    p,
		CacheSize: p.LargeCache,
		LineSize:  p.LineSizes[0],
		Points:    map[Bench][]ScalingPoint{},
	}
	for _, bench := range []Bench{BGauss, BPsim} {
		for _, procs := range ScalingSizes {
			if procs > scalingMaxProcs[bench] {
				r.logf("  scaling: skipping %s@%d (per-bench cap %d, see scalingMaxProcs)\n",
					bench, procs, scalingMaxProcs[bench])
				continue
			}
			start := time.Now()
			sc, err := r.Run(RunSpec{Bench: bench, Model: consistency.SC1,
				CacheSize: f.CacheSize, LineSize: f.LineSize, Procs: procs})
			if err != nil {
				return nil, fmt.Errorf("scaling %s@%d SC1: %w", bench, procs, err)
			}
			wall := time.Since(start).Seconds()
			rc, err := r.Run(RunSpec{Bench: bench, Model: consistency.RC,
				CacheSize: f.CacheSize, LineSize: f.LineSize, Procs: procs})
			if err != nil {
				return nil, fmt.Errorf("scaling %s@%d RC: %w", bench, procs, err)
			}
			pt := ScalingPoint{
				Procs:    procs,
				SCCycles: uint64(sc.Cycles),
				RCCycles: uint64(rc.Cycles),
				GainPct:  100 * (float64(sc.Cycles) - float64(rc.Cycles)) / float64(sc.Cycles),
				SCMWPI:   sc.MWPI(),
				RCMWPI:   rc.MWPI(),
				Events:   sc.Events,
				WallSecs: wall,
			}
			if wall > 0 {
				pt.EventsPerSec = float64(sc.Events) / wall
				pt.CyclesPerSec = float64(sc.Cycles) / wall
			}
			f.Points[bench] = append(f.Points[bench], pt)
		}
	}
	return f, nil
}

func (f *ScalingFigure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scaling: SC1 vs RC by machine size (%s preset, cache %dK, line %dB)\n",
		f.Params.Name, f.CacheSize>>10, f.LineSize)
	for _, bench := range []Bench{BGauss, BPsim} {
		pts := f.Points[bench]
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "\n%s:\n", bench)
		sb.WriteString("  procs     SC1 cycles      RC cycles   gain%   SC1 MWPI  RC MWPI   Mev/s sim  Mcyc/s sim\n")
		for _, pt := range pts {
			fmt.Fprintf(&sb, "  %5d %14d %14d  %6.1f  %9.3f %8.3f  %9.1f  %9.1f\n",
				pt.Procs, pt.SCCycles, pt.RCCycles, pt.GainPct, pt.SCMWPI, pt.RCMWPI,
				pt.EventsPerSec/1e6, pt.CyclesPerSec/1e6)
		}
	}
	return sb.String()
}
