package experiments

import (
	"fmt"
	"strings"

	"memsim/internal/consistency"
	"memsim/internal/workloads"
)

// Figure2 reproduces the paper's Figure 2: SC1 run time by line size
// for both cache sizes.
type Figure2 struct {
	Params Params
	Cycles map[Bench]map[CL]uint64
}

// RunFigure2 gathers SC1 run times over the full cache/line grid.
func RunFigure2(r *Runner) (*Figure2, error) {
	p := r.Params
	f := &Figure2{Params: p, Cycles: map[Bench]map[CL]uint64{}}
	for _, bench := range Benches {
		f.Cycles[bench] = map[CL]uint64{}
		for _, cache := range []int{p.SmallCache, p.LargeCache} {
			for _, line := range p.LineSizes {
				res, err := r.Run(RunSpec{Bench: bench, Model: consistency.SC1, CacheSize: cache, LineSize: line})
				if err != nil {
					return nil, err
				}
				f.Cycles[bench][CL{cache, line}] = uint64(res.Cycles)
			}
		}
	}
	return f, nil
}

func (f *Figure2) String() string {
	var sb strings.Builder
	p := f.Params
	fmt.Fprintf(&sb, "Figure 2: SC1 run time (kilocycles) by line size (%s preset)\n", p.Name)
	fmt.Fprintf(&sb, "%-7s |", "Bench")
	for _, cache := range []int{p.SmallCache, p.LargeCache} {
		for _, line := range p.LineSizes {
			fmt.Fprintf(&sb, " %9s", CL{cache, line})
		}
	}
	sb.WriteString("\n")
	for _, bench := range Benches {
		fmt.Fprintf(&sb, "%-7s |", bench)
		for _, cache := range []int{p.SmallCache, p.LargeCache} {
			for _, line := range p.LineSizes {
				fmt.Fprintf(&sb, " %9.0f", float64(f.Cycles[bench][CL{cache, line}])/1000)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// GainFigure reproduces Figures 4 and 5 (and, restricted to Gauss at
// 32 processors, Figure 6): the percent performance gain of each
// relaxed model over SC1 at the same line size. Figures 7 and 8 are
// the same grid over the blocking-load baseline bSC1.
type GainFigure struct {
	Params    Params
	Title     string
	Base      consistency.Model // the baseline every gain is over
	CacheSize int
	Procs     int
	Benches   []Bench
	Models    []consistency.Model
	// GainPct[bench][model][line] = 100 * (Base - model)/Base.
	GainPct map[Bench]map[consistency.Model]map[int]float64
}

// RunFigure4 is the small-cache gain grid (paper Figure 4).
func RunFigure4(r *Runner) (*GainFigure, error) {
	return runGainFigure(r, "Figure 4", consistency.SC1, r.Params.SmallCache, 0, Benches, consistency.RelaxedModels)
}

// RunFigure5 is the large-cache gain grid (paper Figure 5).
func RunFigure5(r *Runner) (*GainFigure, error) {
	return runGainFigure(r, "Figure 5", consistency.SC1, r.Params.LargeCache, 0, Benches, consistency.RelaxedModels)
}

// RunFigure6 is Gauss at 32 processors (paper Figure 6; the paper
// omitted WO2 at 32 processors, and so do we). It returns one
// GainFigure per cache size.
func RunFigure6(r *Runner) (*GainFigure, *GainFigure, error) {
	models := []consistency.Model{consistency.SC2, consistency.WO1, consistency.RC}
	small, err := runGainFigure(r, "Figure 6 (small cache)", consistency.SC1, r.Params.SmallCache, 32, []Bench{BGauss}, models)
	if err != nil {
		return nil, nil, err
	}
	large, err := runGainFigure(r, "Figure 6 (large cache)", consistency.SC1, r.Params.LargeCache, 32, []Bench{BGauss}, models)
	if err != nil {
		return nil, nil, err
	}
	return small, large, nil
}

func runGainFigure(r *Runner, title string, baseline consistency.Model, cache, procs int, benches []Bench, models []consistency.Model) (*GainFigure, error) {
	p := r.Params
	f := &GainFigure{
		Params: p, Title: title, Base: baseline, CacheSize: cache, Procs: procs,
		Benches: benches, Models: models,
		GainPct: map[Bench]map[consistency.Model]map[int]float64{},
	}
	for _, bench := range benches {
		f.GainPct[bench] = map[consistency.Model]map[int]float64{}
		for _, model := range models {
			f.GainPct[bench][model] = map[int]float64{}
		}
		for _, line := range p.LineSizes {
			base, err := r.Run(RunSpec{Bench: bench, Model: baseline,
				CacheSize: cache, LineSize: line, Procs: procs})
			if err != nil {
				return nil, err
			}
			for _, model := range models {
				res, err := r.Run(RunSpec{Bench: bench, Model: model,
					CacheSize: cache, LineSize: line, Procs: procs})
				if err != nil {
					return nil, err
				}
				f.GainPct[bench][model][line] = 100 * res.GainOver(base)
			}
		}
	}
	return f, nil
}

func (f *GainFigure) String() string {
	var sb strings.Builder
	over := f.Base.String()
	if f.Base == consistency.BSC1 {
		over += " (blocking loads)"
	}
	fmt.Fprintf(&sb, "%s: %% gain over %s, cache %dK (%s preset", f.Title, over, f.CacheSize>>10, f.Params.Name)
	if f.Procs != 0 {
		fmt.Fprintf(&sb, ", %d processors", f.Procs)
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "%-7s %-5s |", "Bench", "Model")
	for _, line := range f.Params.LineSizes {
		fmt.Fprintf(&sb, " %5dB", line)
	}
	sb.WriteString("\n")
	for _, bench := range f.Benches {
		for _, model := range f.Models {
			fmt.Fprintf(&sb, "%-7s %-5s |", bench, model)
			for _, line := range f.Params.LineSizes {
				fmt.Fprintf(&sb, " %5.1f%%", f.GainPct[bench][model][line])
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// blockingModels are the rows of Figures 7 and 8.
var blockingModels = []consistency.Model{consistency.SC1, consistency.BWO1, consistency.WO1}

// RunFigure7 is the small-cache blocking-load grid: gains of SC1, bWO1
// and WO1 over the blocking-load baseline bSC1.
func RunFigure7(r *Runner) (*GainFigure, error) {
	return runGainFigure(r, "Figure 7", consistency.BSC1, r.Params.SmallCache, 0, Benches, blockingModels)
}

// RunFigure8 is the large-cache blocking-load grid.
func RunFigure8(r *Runner) (*GainFigure, error) {
	return runGainFigure(r, "Figure 8", consistency.BSC1, r.Params.LargeCache, 0, Benches, blockingModels)
}

// Figure9 reproduces the paper's Figure 9: the run-time effect of
// hand-scheduling Relax's loads, relative to the compiler's default
// schedule, for SC1 and WO1 at both cache sizes. "Optimal" and "bad"
// are model-specific: the optimal SC schedule issues the missing load
// last, the optimal WO schedule issues it first (§5.2).
type Figure9 struct {
	Params Params
	// ChangePct[model][cache][line][kind] with kind "optimal"/"bad":
	// positive = faster than the default schedule.
	ChangePct map[consistency.Model]map[int]map[int]map[string]float64
}

// RunFigure9 gathers the schedule-quality grid.
func RunFigure9(r *Runner) (*Figure9, error) {
	p := r.Params
	f := &Figure9{Params: p, ChangePct: map[consistency.Model]map[int]map[int]map[string]float64{}}
	for _, model := range []consistency.Model{consistency.SC1, consistency.WO1} {
		optimal := workloads.RelaxMissLast
		bad := workloads.RelaxMissFirst
		if model == consistency.WO1 {
			optimal, bad = bad, optimal
		}
		f.ChangePct[model] = map[int]map[int]map[string]float64{}
		for _, cache := range []int{p.SmallCache, p.LargeCache} {
			f.ChangePct[model][cache] = map[int]map[string]float64{}
			for _, line := range p.LineSizes {
				base, err := r.Run(RunSpec{Bench: BRelax, Model: model, CacheSize: cache,
					LineSize: line, RelaxSched: workloads.RelaxDefault})
				if err != nil {
					return nil, err
				}
				cell := map[string]float64{}
				for kind, sched := range map[string]workloads.RelaxSchedule{"optimal": optimal, "bad": bad} {
					res, err := r.Run(RunSpec{Bench: BRelax, Model: model, CacheSize: cache,
						LineSize: line, RelaxSched: sched})
					if err != nil {
						return nil, err
					}
					cell[kind] = 100 * res.GainOver(base)
				}
				f.ChangePct[model][cache][line] = cell
			}
		}
	}
	return f, nil
}

func (f *Figure9) String() string {
	var sb strings.Builder
	p := f.Params
	fmt.Fprintf(&sb, "Figure 9: Relax schedule quality vs default (%s preset)\n", p.Name)
	fmt.Fprintf(&sb, "%-5s %6s %8s |", "Model", "cache", "variant")
	for _, line := range p.LineSizes {
		fmt.Fprintf(&sb, " %5dB", line)
	}
	sb.WriteString("\n")
	for _, model := range []consistency.Model{consistency.SC1, consistency.WO1} {
		for _, cache := range []int{p.SmallCache, p.LargeCache} {
			for _, kind := range []string{"optimal", "bad"} {
				fmt.Fprintf(&sb, "%-5s %5dK %8s |", model, cache>>10, kind)
				for _, line := range p.LineSizes {
					fmt.Fprintf(&sb, " %5.1f%%", f.ChangePct[model][cache][line][kind])
				}
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}
