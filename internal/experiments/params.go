// Package experiments reproduces every table and figure of the
// paper's evaluation (§3.3 Table 2, Figure 2; §4 Figures 4-6; §5
// Figures 7-9 and Tables 3-6). Each driver runs the full grid of
// configurations through the simulator and returns a structured,
// printable report; DESIGN.md §3 maps drivers to paper artifacts and
// EXPERIMENTS.md records measured-vs-paper shapes.
//
// Two parameter presets exist. Scaled (the default) shrinks the
// benchmark data sets and caches together so the whole evaluation runs
// in minutes while preserving each benchmark's relationship to the
// cache — Gauss fits the large cache but not the small, Qsort fits
// neither, Relax keeps its three-row reuse window, Psim keeps high
// sharing and the top synchronization rate. Paper uses the original
// sizes (250x250 Gauss, 500k-element Qsort, 514x514 Relax, 64x513
// Psim, 16K/64K caches); expect hours of CPU time.
package experiments

import "fmt"

// Params fixes the benchmark and machine sizes for one evaluation.
type Params struct {
	Name  string
	Procs int
	// SmallCache and LargeCache play the paper's 16K and 64K roles.
	SmallCache int
	LargeCache int
	LineSizes  []int
	LoadDelay  int // also the branch delay (paper couples them)

	GaussN     int
	GaussN32   int // matrix size for the 32-processor runs (Figure 6)
	QsortN     int
	RelaxN     int
	RelaxIters int
	PsimPorts  int
	PsimRefs   int

	Seed int64

	// MaxEvents bounds each simulation run.
	MaxEvents uint64
}

// Preset returns the named preset: quick, scaled or paper.
func Preset(name string) (Params, error) {
	for _, p := range []Params{Quick(), Scaled(), Paper()} {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("experiments: unknown preset %q (valid: quick, scaled, paper)", name)
}

// Scaled returns the default scaled-down preset (see package comment).
func Scaled() Params {
	return Params{
		Name:       "scaled",
		Procs:      16,
		SmallCache: 2 << 10,
		LargeCache: 8 << 10,
		LineSizes:  []int{8, 16, 64},
		LoadDelay:  4,
		GaussN:     96,
		GaussN32:   176,
		QsortN:     6000,
		RelaxN:     64,
		RelaxIters: 2,
		PsimPorts:  64,
		PsimRefs:   48,
		Seed:       1992,
		MaxEvents:  3_000_000_000,
	}
}

// Quick returns a minimal preset for tests and smoke runs: small
// enough that the full grid completes in seconds, still preserving the
// cache relationships qualitatively.
func Quick() Params {
	return Params{
		Name:       "quick",
		Procs:      8,
		SmallCache: 1 << 10,
		LargeCache: 4 << 10,
		LineSizes:  []int{8, 64},
		LoadDelay:  4,
		GaussN:     40,
		GaussN32:   72,
		QsortN:     1200,
		RelaxN:     32,
		RelaxIters: 1,
		PsimPorts:  32,
		PsimRefs:   12,
		Seed:       1992,
		MaxEvents:  1_000_000_000,
	}
}

// Paper returns the paper's original sizes. A full grid at this scale
// is an overnight run, exactly as the authors lament in §7.
func Paper() Params {
	return Params{
		Name:       "paper",
		Procs:      16,
		SmallCache: 16 << 10,
		LargeCache: 64 << 10,
		LineSizes:  []int{8, 16, 64},
		LoadDelay:  4,
		GaussN:     250,
		GaussN32:   250,
		QsortN:     500_000,
		RelaxN:     512,
		RelaxIters: 2,
		PsimPorts:  64,
		PsimRefs:   513,
		Seed:       1992,
		MaxEvents:  2_000_000_000_000,
	}
}
