package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/workloads"
)

// goldenSeed is the seed the committed corpora under testdata/golden
// were computed at; only there can a checksum be compared to them.
const goldenSeed = 1992

// counts sums the simulated statistics of machine.Results. They are
// simulated, not host, quantities: for one seed they repeat exactly.
type counts struct {
	runs                        int
	events, cycles, cpuCycles   uint64
	instrs, stall               uint64
	accesses, hits, invalMisses uint64
	msgs, retries, queueDelay   uint64
	memReqs, memInvals          uint64
	memQueued, memBusy          uint64
	utilSpread                  float64
}

func (c *counts) add(r machine.Result) {
	c.runs++
	c.events += r.Events
	c.cycles += r.Cycles
	for _, s := range r.CPUs {
		c.cpuCycles += s.HaltCycle
		c.instrs += s.Instructions
		c.stall += s.StallInterlock + s.StallLoadWait + s.StallOutstanding + s.StallConflict +
			s.StallDrain + s.StallSync + s.StallBlocking + s.StallRelease
	}
	for _, s := range r.Caches {
		c.accesses += s.Reads + s.Writes
		c.hits += s.ReadHits + s.WriteHits
		c.invalMisses += s.InvalidationMisses
	}
	for _, s := range r.Modules {
		c.memReqs += s.Reads + s.Writes + s.WriteBacks
		c.memInvals += s.Invalidates
		c.memQueued += s.QueuedCycles
		c.memBusy += s.BusyCycles
	}
	for _, n := range []struct{ m, r, q uint64 }{
		{r.ReqNet.Messages, r.ReqNet.Retries, r.ReqNet.QueueDelay},
		{r.RespNet.Messages, r.RespNet.Retries, r.RespNet.QueueDelay},
	} {
		c.msgs += n.m
		c.retries += n.r
		c.queueDelay += n.q
	}
	c.utilSpread += r.ModuleUtilizationSpread()
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// passResult is what one pass of a workload reports.
type passResult struct {
	attempted, failed int
	counts            counts
	// digest identifies every output of the pass; identical inputs
	// must yield the identical digest on every pass.
	digest string
	// extra holds workload-specific readings of the pass (phase times,
	// latency percentiles, the simulated RC-over-SC1 gain).
	extra map[string]float64
	// firstFailure describes the first failed operation, for the log.
	firstFailure string
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// specKey names a spec the way the golden corpora do.
func specKey(s experiments.RunSpec) string {
	return fmt.Sprintf("%s/%s/line%d", s.Bench, s.Model, s.LineSize)
}

func loadGolden(name string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "testdata", "golden", name))
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}

// paperModels are the paper's five system types, the ones the golden
// corpora cover.
var paperModels = []consistency.Model{consistency.SC1, consistency.SC2, consistency.WO1, consistency.WO2, consistency.RC}

// inputSeed is the seed a benchmark program's input is generated from:
// the run's seed, except for Qsort, whose array is the golden seed's
// on every run. How evenly that array's partitions split decides how
// long the processors wait for work: over seeds 1992-2001 Qsort
// simulates 3.0 to 4.7 M events, a third of the grid, so another array
// is another workload, not another sample of this one. The other three
// programs do the same work on any input (Psim to within 1 %).
func inputSeed(seed int64, b experiments.Bench) int64 {
	if b == experiments.BQsort {
		return goldenSeed
	}
	return seed
}

// quickGrid is the grid of testdata/golden/quick.json over the given
// benchmark programs: each under the five models at both line sizes.
func quickGrid(p experiments.Params, benches ...experiments.Bench) []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, b := range benches {
		for _, m := range paperModels {
			for _, ls := range p.LineSizes {
				specs = append(specs, experiments.RunSpec{Bench: b, Model: m, CacheSize: p.LargeCache, LineSize: ls})
			}
		}
	}
	return specs
}

// buildWorkload mirrors the workload choice experiments.Runner makes
// for a spec, through the exported constructors, so a traced pass can
// time construction apart from the run. Any drift from the Runner
// shows as a checksum mismatch against the untraced passes.
func buildWorkload(p experiments.Params, s experiments.RunSpec) workloads.Workload {
	procs := s.Procs
	if procs == 0 {
		procs = p.Procs
	}
	switch s.Bench {
	case experiments.BGauss:
		n := p.GaussN
		if procs != p.Procs && p.GaussN32 != 0 {
			n = p.GaussN32
		}
		return workloads.Gauss(procs, max(n, procs), p.Seed)
	case experiments.BQsort:
		return workloads.Qsort(procs, p.QsortN, p.Seed)
	case experiments.BRelax:
		return workloads.Relax(procs, max(p.RelaxN, procs), p.RelaxIters, s.RelaxSched, p.Seed)
	default:
		ports := p.PsimPorts
		if ports < procs {
			ports = 4 * procs
		}
		return workloads.Psim(procs, ports, p.PsimRefs, p.Seed)
	}
}

// newMachine builds a spec's workload and its machine and loads the
// shared image, as Runner.Run does before it runs, one span per step.
func newMachine(tr *tracer, parent int, p experiments.Params, s experiments.RunSpec, noSpinSkip bool) (workloads.Workload, *machine.Machine, error) {
	id := tr.begin(parent, "workloads.build")
	w := buildWorkload(p, s)
	tr.end(id)

	id = tr.begin(parent, "machine.new")
	m, err := machine.New(machine.Config{
		Procs: w.Procs, Model: s.Model, CacheSize: s.CacheSize, LineSize: s.LineSize,
		LoadDelay: cmp.Or(s.LoadDelay, p.LoadDelay), MSHRs: s.MSHRs, SharedWords: w.SharedWords,
		NoSpinSkip: noSpinSkip,
	}, w.Programs)
	tr.end(id)
	if err != nil {
		return w, nil, err
	}

	if w.Setup != nil {
		id = tr.begin(parent, "workloads.build")
		w.Setup(m.Shared())
		tr.end(id)
	}
	return w, m, nil
}

// replay performs the steps of Runner.Run for one spec through the
// exported calls, one span each.
func replay(tr *tracer, parent int, p experiments.Params, s experiments.RunSpec) (machine.Result, string, error) {
	root := tr.begin(parent, "bench.replay")
	defer tr.end(root)

	w, m, err := newMachine(tr, root, p, s, false)
	if err != nil {
		return machine.Result{}, "", err
	}

	id := tr.begin(root, "machine.run")
	res, err := m.Run(p.MaxEvents)
	tr.end(id)
	if err != nil {
		return machine.Result{}, "", err
	}

	if w.Validate != nil {
		id = tr.begin(root, "workloads.validate")
		err = w.Validate(m.Shared())
		tr.end(id)
		if err != nil {
			return machine.Result{}, "", err
		}
	}

	id = tr.begin(root, "machine.checksum")
	sum := res.Checksum()
	tr.end(id)
	return res, sum, nil
}

// gridPasser runs a list of simulation specs one at a time. A result
// whose input came from the golden seed is compared to the golden
// corpus; for the others there is nothing to compare to, and
// correctness rests on the workloads' own Validate and on every pass
// producing the same digest.
type gridPasser struct {
	params experiments.Params // Seed is the run's
	specs  []experiments.RunSpec
	golden map[string]string // nil where no corpus covers the specs
}

func (g *gridPasser) close() {}

func (g *gridPasser) pass(tr *tracer) (passResult, error) {
	var out passResult
	root := tr.begin(-1, "bench.pass")
	defer tr.end(root)
	// Fresh Runners per pass, one per input seed: nothing memoises
	// across passes.
	runners := make(map[int64]*experiments.Runner)
	var ran []experiments.RunSpec
	var results []machine.Result
	digest := newDigest()
	for _, s := range g.specs {
		key := specKey(s)
		p := g.params
		p.Seed = inputSeed(p.Seed, s.Bench)
		runner := runners[p.Seed]
		if runner == nil {
			runner = experiments.NewRunner(p)
			runners[p.Seed] = runner
		}
		out.attempted++
		id := tr.begin(root, "experiments.run")
		res, err := runner.Run(s)
		tr.end(id)
		if err != nil {
			out.fail("%s: %v", key, err)
			continue
		}
		sum := res.Checksum()
		if tr != nil {
			// The replay must reproduce the Runner's result bit for bit.
			_, again, err := replay(tr, root, p, s)
			if err != nil || again != sum {
				out.fail("%s: replay through exported calls gave %q (%v), Runner gave %q", key, again, err, sum)
				continue
			}
		}
		if g.golden != nil && p.Seed == goldenSeed && g.golden[key] != sum {
			out.fail("%s: checksum %s differs from the golden %s", key, sum, g.golden[key])
			continue
		}
		digest.add(key, sum)
		out.counts.add(res)
		ran, results = append(ran, s), append(results, res)
	}
	out.digest = digest.sum()
	out.extra = map[string]float64{"rc_gain_pct": rcGainPct(ran, results)}
	return out, nil
}

// rcGainPct is the mean simulated gain of RC over SC1, in percent,
// over the configurations that ran under both.
func rcGainPct(specs []experiments.RunSpec, results []machine.Result) float64 {
	sc1 := make(map[experiments.RunSpec]machine.Result)
	for i, s := range specs {
		if s.Model == consistency.SC1 {
			sc1[s] = results[i]
		}
	}
	var sum float64
	n := 0
	for i, s := range specs {
		if s.Model != consistency.RC {
			continue
		}
		s.Model = consistency.SC1
		if base, ok := sc1[s]; ok {
			sum += 100 * results[i].GainOver(base)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func preparePaperGrid(o options) (passer, error) {
	p := experiments.Quick()
	p.Seed = o.seed
	golden, err := loadGolden("quick.json")
	if err != nil {
		return nil, err
	}
	return &gridPasser{params: p, specs: quickGrid(p, experiments.Benches...), golden: golden}, nil
}

func preparePsim64(o options) (passer, error) {
	p := experiments.Quick()
	p.Seed = o.seed
	procs := 64
	var golden map[string]string
	if o.smoke {
		procs = 16 // no corpus has Psim at this size
	} else {
		var err error
		if golden, err = loadGolden("big.json"); err != nil {
			return nil, err
		}
	}
	var specs []experiments.RunSpec
	for _, m := range []consistency.Model{consistency.SC1, consistency.RC} {
		specs = append(specs, experiments.RunSpec{Bench: experiments.BPsim, Model: m, Procs: procs,
			CacheSize: p.LargeCache, LineSize: p.LineSizes[len(p.LineSizes)-1]})
	}
	return &gridPasser{params: p, specs: specs, golden: golden}, nil
}
