package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"memsim/internal/compare"
	"memsim/internal/consistency"
	"memsim/internal/difftest"
	"memsim/internal/litmus"
)

// conformancePasser runs the three checkers back to back: the litmus
// library, the random-program differential test and the model
// comparator, each over all ten models.
type conformancePasser struct {
	seed       int64
	litmusRuns int
	checkRuns  int
	tests      []*litmus.Test
	programs   []difftest.Program
}

func prepareConformance(o options) (passer, error) {
	c := &conformancePasser{seed: o.seed, litmusRuns: 40, checkRuns: 25, tests: litmus.Library()}
	programs := 20
	if o.smoke {
		c.litmusRuns, c.checkRuns, programs = 4, 4, 3
	}
	gen := difftest.DefaultGen()
	for i := 0; i < programs; i++ {
		c.programs = append(c.programs, difftest.Generate(gen, o.seed+int64(i)))
	}
	return c, nil
}

func (c *conformancePasser) close() {}

func (c *conformancePasser) pass(tr *tracer) (passResult, error) {
	var out passResult
	root := tr.begin(-1, "bench.pass")
	defer tr.end(root)
	digest := newDigest()

	stage := tr.begin(root, "litmus")
	for _, t := range c.tests {
		for _, m := range consistency.Models {
			name := t.Name + "/" + m.String()
			out.attempted++
			id := tr.begin(stage, "litmus.run")
			rep, err := litmus.Run(t, m, litmus.Config{Runs: c.litmusRuns, Seed: c.seed})
			tr.end(id)
			switch {
			case err != nil:
				out.fail("litmus %s: %v", name, err)
			case !rep.OK():
				out.fail("litmus %s: forbidden outcome %s at seed %d", name, rep.Violations[0].Outcome, rep.Violations[0].Seed)
			default:
				digest.add(name, witnessed(rep.Witnessed))
			}
		}
	}
	tr.end(stage)

	stage = tr.begin(root, "difftest")
	for _, p := range c.programs {
		out.attempted += len(consistency.Models)
		id := tr.begin(stage, "difftest.check")
		rep, err := difftest.CheckProgram(context.Background(), p, consistency.Models,
			difftest.CheckConfig{Runs: c.checkRuns, Seed: c.seed})
		tr.end(id)
		if err != nil {
			out.failed += len(consistency.Models) - 1
			out.fail("difftest program %d: %v", p.Seed, err)
			continue
		}
		for _, mr := range rep.Models {
			name := fmt.Sprintf("difftest-%d/%s", p.Seed, mr.Model)
			if len(mr.Violations) > 0 {
				out.fail("%s: outcome %s outside the allowed set", name, mr.Violations[0].Outcome)
				continue
			}
			digest.add(name, witnessed(mr.Witnessed))
		}
	}
	tr.end(stage)

	stage = tr.begin(root, "compare")
	out.attempted++
	res, err := compare.Compare(consistency.Models, compare.DefaultBudget())
	if err != nil {
		out.fail("compare: %v", err)
	} else {
		digest.add("lattice", fmt.Sprint(res.HasseEdges(), res.Programs))
	}
	tr.end(stage)

	out.digest = digest.sum()
	return out, nil
}

// witnessed renders an outcome histogram in key order.
func witnessed(w map[string]int) string {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&s, "%s=%d;", k, w[k])
	}
	return s.String()
}
