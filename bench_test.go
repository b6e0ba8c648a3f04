// Benchmarks that regenerate the paper's tables and figures — one
// testing.B target per artifact (DESIGN.md §3 maps them). They run the
// Quick preset so `go test -bench=.` finishes in minutes; use
// `go run ./cmd/sweep -all -preset scaled` for the full-fidelity
// reproduction written to EXPERIMENTS.md.
package memsim_test

import (
	"testing"

	"memsim"
	"memsim/internal/experiments"
)

// benchParams is the grid used by the table/figure benchmarks.
func benchParams() experiments.Params { return experiments.Quick() }

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		t, err := experiments.RunTable2(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure2(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure4(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure5(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure6(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure7(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure8(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		f, err := experiments.RunFigure9(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = f.String()
	}
}

func BenchmarkTables3to6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchParams())
		t, err := experiments.RunTables3to6(r)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed:
// simulated cycles per wall second on one mid-sized configuration.
// This is the ablation knob for engine/machine performance work.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := memsim.GaussWorkload(8, 48, 1)
	cfg := memsim.Config{Procs: 8, Model: memsim.WO1, CacheSize: 4 << 10, LineSize: 16}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := memsim.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		cycles += uint64(res.Cycles)
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
}

// sink defeats dead-code elimination of report rendering.
var sink string
