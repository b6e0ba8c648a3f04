package experiments

import (
	"fmt"
	"strings"

	"memsim/internal/consistency"
)

// Zoo extends the paper's relaxed-model comparison to the model zoo:
// the Figure 4-style percent gain of every relaxed model — the
// paper's four plus TSO, PSO and PC — over SC1 on all four
// benchmarks, and a Table 9-style MWPI column per model at the
// reference line size.
type Zoo struct {
	Gain *GainFigure
	// MWPI[bench][model]: memory wait per instruction at the small
	// cache and reference line size.
	MWPI map[Bench]map[consistency.Model]float64
}

// zooFigureModels lists every relaxed model compared against SC1.
var zooFigureModels = []consistency.Model{
	consistency.SC2, consistency.WO1, consistency.WO2, consistency.RC,
	consistency.TSO, consistency.PSO, consistency.PC,
}

// RunZoo gathers the zoo comparison grid.
func RunZoo(r *Runner) (*Zoo, error) {
	p := r.Params
	gain, err := runGainFigure(r, "Zoo", consistency.SC1, p.SmallCache, 0, Benches, zooFigureModels)
	if err != nil {
		return nil, err
	}
	z := &Zoo{Gain: gain, MWPI: map[Bench]map[consistency.Model]float64{}}
	line := referenceLine(p)
	for _, bench := range Benches {
		z.MWPI[bench] = map[consistency.Model]float64{}
		for _, model := range append([]consistency.Model{consistency.SC1}, zooFigureModels...) {
			res, err := r.Run(RunSpec{Bench: bench, Model: model,
				CacheSize: p.SmallCache, LineSize: line})
			if err != nil {
				return nil, err
			}
			z.MWPI[bench][model] = res.MWPI()
		}
	}
	return z, nil
}

func (z *Zoo) String() string {
	var sb strings.Builder
	sb.WriteString(z.Gain.String())
	p := z.Gain.Params
	fmt.Fprintf(&sb, "\nZoo MWPI (Table 9 style): memory wait per instruction, cache %dK, %dB lines\n",
		p.SmallCache>>10, referenceLine(p))
	fmt.Fprintf(&sb, "%-7s |", "Bench")
	models := append([]consistency.Model{consistency.SC1}, zooFigureModels...)
	for _, m := range models {
		fmt.Fprintf(&sb, " %6s", m)
	}
	sb.WriteString("\n")
	for _, bench := range Benches {
		fmt.Fprintf(&sb, "%-7s |", bench)
		for _, m := range models {
			fmt.Fprintf(&sb, " %6.3f", z.MWPI[bench][m])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
