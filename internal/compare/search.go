// Package compare is the automatic model comparator: it computes, for
// any pair of consistency models, a minimal litmus-style witness
// program — one whose allowed-outcome set differs between the two
// models — and assembles the full strictness lattice over the model
// zoo. "Allowed" is the litmus package's spec-derived engine
// ((*litmus.Test).Outcomes), the same set the conformance harness
// enforces, so comparison and conformance are two queries over one
// semantics.
package compare

import (
	"fmt"
	"slices"
	"sort"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// Class is a set of models the engine cannot distinguish: identical
// relaxation axes, forwarding capability, and annotation handling.
// WO1 and WO2 differ only in timing (network-interface load
// bypassing), SC1/SC2/bSC1 only in performance dials, so each group
// shares one entry in the lattice.
type Class struct {
	Name   string   `json:"name"`   // representative model name
	Models []string `json:"models"` // all member models, presentation order
	Sig    string   `json:"sig"`    // behavioral signature
	spec   consistency.Spec
}

// Witness is one minimal distinguishing program for an ordered class
// pair: Outcome is produced by the weak class's engine and forbidden
// by the strong class's.
type Witness struct {
	Weak    string          `json:"weak"`
	Strong  string          `json:"strong"`
	Threads []litmus.Thread `json:"threads"`
	NLocs   int             `json:"nlocs"`
	Ops     int             `json:"ops"`
	Outcome string          `json:"outcome"`
	// Engine outcome sets of the two classes on this program.
	WeakAllowed   []string      `json:"weak_allowed"`
	StrongAllowed []string      `json:"strong_allowed"`
	Verification  *Verification `json:"verification,omitempty"`
}

// Pair is the comparison verdict for one ordered class pair.
type Pair struct {
	Weak   string `json:"weak"`
	Strong string `json:"strong"`
	// Separated: some outcome is allowed on Weak and forbidden on
	// Strong within the budget. Witness is the minimal such program;
	// Candidates holds it plus fallback alternatives (used when
	// hardware verification cannot exhibit the minimal witness's
	// outcome at realistic run counts).
	Separated  bool       `json:"separated"`
	Witness    *Witness   `json:"witness,omitempty"`
	Candidates []*Witness `json:"-"`
}

// Result is a full comparison of a model set under a budget.
type Result struct {
	Budget   Budget   `json:"budget"`
	Models   []string `json:"models"`
	Classes  []Class  `json:"classes"`
	Pairs    []Pair   `json:"pairs"` // ordered (weak, strong), both directions
	Programs int      `json:"programs_searched"`
	// Exhausted is false if the enumeration stopped early (never the
	// case today: non-separations force a full scan).
	Exhausted bool `json:"exhausted"`
}

// maxCandidates bounds how many alternative witnesses per pair are
// retained for hardware-verification fallback.
const maxCandidates = 3

// Compare groups the models into behavioral classes and searches the
// budgeted program space for a minimal witness per ordered class
// pair. Purely engine-driven and deterministic; hardware verification
// is a separate step (Result.Verify).
func Compare(models []consistency.Model, b Budget) (*Result, error) {
	if len(models) < 2 {
		return nil, fmt.Errorf("compare: need at least two models")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Budget: b}
	var classes []*Class
	bySig := make(map[string]*Class)
	for _, m := range models {
		res.Models = append(res.Models, m.String())
		spec := consistency.SpecFor(m)
		sig := litmus.Signature(spec)
		c, ok := bySig[sig]
		if !ok {
			c = &Class{Name: m.String(), Sig: sig, spec: spec}
			bySig[sig] = c
			classes = append(classes, c)
		}
		c.Models = append(c.Models, m.String())
	}
	if len(classes) < 2 {
		return nil, fmt.Errorf("compare: all %d models share one behavioral class (%s)", len(models), classes[0].Sig)
	}

	// One pass over the program space; every class's outcome set is
	// computed once per program, on one explorer, and shared across all
	// pair checks.
	type pairState struct {
		weak, strong int
		candidates   []*Witness
	}
	var pairs []pairState
	for i := range classes {
		for j := range classes {
			if i != j {
				pairs = append(pairs, pairState{weak: i, strong: j})
			}
		}
	}
	var x litmus.Explorer
	var enumErr error
	words := make([][]uint64, len(classes))
	res.Exhausted = b.Enumerate(func(prog []litmus.Thread) bool {
		res.Programs++
		t, ops := litmus.SynthTest(prog)
		for ci, c := range classes {
			ws, err := x.Words(t, c.spec)
			if err != nil {
				enumErr = err
				return false
			}
			words[ci] = append(words[ci][:0], ws...)
		}
		// Every class's words are of this program: x formats any of them.
		for pi := range pairs {
			ps := &pairs[pi]
			if len(ps.candidates) >= maxCandidates {
				continue
			}
			diff, found := leastMissing(words[ps.weak], words[ps.strong], x.Key)
			if !found {
				continue
			}
			ps.candidates = append(ps.candidates, &Witness{
				Weak:          classes[ps.weak].Name,
				Strong:        classes[ps.strong].Name,
				Threads:       prog,
				NLocs:         t.NLocs,
				Ops:           ops,
				Outcome:       diff,
				WeakAllowed:   x.Keys(words[ps.weak]),
				StrongAllowed: x.Keys(words[ps.strong]),
			})
		}
		return true
	})
	if enumErr != nil {
		return nil, enumErr
	}

	res.Classes = make([]Class, len(classes))
	for i, c := range classes {
		res.Classes[i] = *c
	}
	for _, ps := range pairs {
		p := Pair{Weak: classes[ps.weak].Name, Strong: classes[ps.strong].Name}
		if len(ps.candidates) > 0 {
			p.Separated = true
			p.Witness = ps.candidates[0]
			p.Candidates = ps.candidates
		}
		res.Pairs = append(res.Pairs, p)
	}
	sort.Slice(res.Pairs, func(a, b int) bool {
		if res.Pairs[a].Weak != res.Pairs[b].Weak {
			return res.Pairs[a].Weak < res.Pairs[b].Weak
		}
		return res.Pairs[a].Strong < res.Pairs[b].Strong
	})
	return res, nil
}

// leastMissing returns the string-least key, as key formats it, of the
// words in weak but not in strong (sorted): the witness outcome a scan
// of the sorted keys would pick first.
func leastMissing(weak, strong []uint64, key func(uint64) string) (least string, found bool) {
	for _, w := range weak {
		if _, in := slices.BinarySearch(strong, w); !in {
			if k := key(w); !found || k < least {
				least, found = k, true
			}
		}
	}
	return least, found
}

// Outcomes is the allowed outcome set of a test under a spec, as
// sorted outcome keys.
func Outcomes(t *litmus.Test, spec consistency.Spec) ([]string, error) {
	return t.Outcomes(spec)
}

// Pair returns the ordered-pair verdict for two class names.
func (r *Result) Pair(weak, strong string) *Pair {
	for i := range r.Pairs {
		if r.Pairs[i].Weak == weak && r.Pairs[i].Strong == strong {
			return &r.Pairs[i]
		}
	}
	return nil
}

// Relation classifies two classes: "equivalent" (no witness either
// way at this budget), "stronger" (A forbids something B allows and
// not vice versa), "weaker", or "incomparable".
func (r *Result) Relation(a, b string) string {
	ab := r.Pair(a, b) // outcome allowed on a, forbidden on b
	ba := r.Pair(b, a)
	if ab == nil || ba == nil {
		return "unknown"
	}
	switch {
	case !ab.Separated && !ba.Separated:
		return "equivalent"
	case ab.Separated && ba.Separated:
		return "incomparable"
	case ba.Separated:
		return "stronger" // b exhibits outcomes a forbids: a is stricter
	default:
		return "weaker"
	}
}

// HasseEdges returns the transitive reduction of the strictly-
// stronger-than relation as (stronger, weaker) class-name pairs,
// sorted for deterministic output.
func (r *Result) HasseEdges() [][2]string {
	stronger := func(a, b string) bool { return r.Relation(a, b) == "stronger" }
	var edges [][2]string
	for _, a := range r.Classes {
		for _, b := range r.Classes {
			if a.Name == b.Name || !stronger(a.Name, b.Name) {
				continue
			}
			direct := true
			for _, c := range r.Classes {
				if c.Name != a.Name && c.Name != b.Name &&
					stronger(a.Name, c.Name) && stronger(c.Name, b.Name) {
					direct = false
					break
				}
			}
			if direct {
				edges = append(edges, [2]string{a.Name, b.Name})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}
