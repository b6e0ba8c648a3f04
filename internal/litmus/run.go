package litmus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"memsim/internal/asm"
	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/machine"
	"memsim/internal/robust"
)

// The perturbation driver. A litmus outcome depends entirely on the
// relative timing of a handful of memory references, so one run
// explores one schedule. To explore many, each seeded run draws a
// different hardware configuration (cache size, line size, MSHR
// count, network buffering, load latency), a different per-thread
// start skew, and — on half the runs — deterministic network fault
// injection (robust.Faults), which jitters message timing without
// changing results. Every run is reproducible from (test, model,
// seed).

// runBudget bounds one litmus run in engine events; generous — these
// programs finish in a few thousand cycles.
const runBudget = 30_000_000

// Config parameterizes a conformance run.
type Config struct {
	Runs int   // perturbed runs per (test, model)
	Seed int64 // base seed; run i derives from Seed+i

	// Mutate seeds a deliberate hardware defect (the self-check). The
	// allowed set still comes from the unmutated model contract — that
	// is the point: a real defect must escape it.
	Mutate consistency.Mutation

	// Ctx, when non-nil, cancels the sweep (e.g. from a SIGINT
	// handler): the current simulated run stops at its next context
	// poll and Run returns the partial report with Interrupted set,
	// instead of an error.
	Ctx context.Context
}

// Violation is one observed outcome outside the model's allowed set.
// Replay embeds everything needed to re-execute the offending run
// bit-exactly — assembled program text, machine configuration,
// observed-load registry, location addresses — so a recorded verdict
// reproduces even against a source tree whose litmus library (or
// perturbation driver) has since changed.
type Violation struct {
	Seed    int64    `json:"seed"`
	Config  string   `json:"config"`
	Outcome string   `json:"outcome"`
	Replay  *RunSpec `json:"replay,omitempty"`
}

// Reproduce re-executes the violation's embedded replay record and
// reports whether the recorded forbidden outcome came back.
func (v *Violation) Reproduce(ctx context.Context) (key string, reproduced bool, err error) {
	if v.Replay == nil {
		return "", false, errors.New("litmus: violation carries no replay record (recorded before verdicts were self-contained?)")
	}
	key, err = v.Replay.Execute(ctx)
	if err != nil {
		return "", false, err
	}
	return key, key == v.Outcome, nil
}

// Report is the verdict of one (test, model) conformance run. When
// Interrupted is set, Runs is how many runs actually completed before
// cancellation and the witnessed counts are a partial coverage view.
type Report struct {
	Test        string         `json:"test"`
	Model       string         `json:"model"`
	Mutate      string         `json:"mutate,omitempty"`
	Runs        int            `json:"runs"`
	Allowed     []string       `json:"allowed"`
	Witnessed   map[string]int `json:"witnessed"`
	Violations  []Violation    `json:"violations,omitempty"`
	Interrupted bool           `json:"interrupted,omitempty"`

	// FirstSeed is the seed of the first run that produced each
	// witnessed outcome, for re-running one (Setup, Execute).
	FirstSeed map[string]int64 `json:"-"`
}

// OK reports whether every observed outcome was allowed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Unwitnessed lists allowed outcomes no run produced — the coverage
// gap. A non-empty list is not a failure: relaxed outcomes need the
// timing dice to land, and some (like IRIW's) are rare.
func (r *Report) Unwitnessed() []string {
	var missing []string
	for _, k := range r.Allowed {
		if r.Witnessed[k] == 0 {
			missing = append(missing, k)
		}
	}
	return missing
}

// variation is one drawn machine configuration.
type variation struct {
	cacheSize int
	lineSize  int
	mshrs     int
	netBuf    int
	loadDelay int
	faults    robust.Faults
	stagger   []int
	layout    Layout
	warm      []uint64
}

func (v variation) String() string {
	s := fmt.Sprintf("cache=%d line=%d mshrs=%d netbuf=%d ld=%d base=%d warm=%v stagger=%v",
		v.cacheSize, v.lineSize, v.mshrs, v.netBuf, v.loadDelay, v.layout.Base, v.warm, v.stagger)
	if v.faults.Enabled() {
		s += fmt.Sprintf(" faults=p%g/d%d", v.faults.DelayProb, v.faults.MaxExtraDelay)
	}
	return s
}

// drawVariation derives run i's configuration from the seed stream
// into v, reusing its stagger and warm arrays.
func drawVariation(x *uint64, threads int, v *variation) {
	pick := func(vals []int) int { return vals[robust.SplitMix64(x)%uint64(len(vals))] }
	*v = variation{
		cacheSize: pick([]int{512, 1024, 2048}),
		lineSize:  pick([]int{8, 16, 32, 64}),
		mshrs:     pick([]int{2, 5}),
		netBuf:    pick([]int{1, 2, 4}),
		loadDelay: pick([]int{1, 2, 4, 7}),
		stagger:   resize(v.stagger, threads),
		// A word-granular base offset reshuffles which home module
		// each location maps to, run by run.
		layout: Layout{Base: locBase + 8*(robust.SplitMix64(x)%32)},
		warm:   resize(v.warm, threads),
	}
	// Per-thread warm mask: 1/4 cold, 1/4 fully warmed, 1/2 a random
	// subset of locations. Full warming makes a thread's loads hit
	// (bind-early, enabling store-load reordering); a partial mask
	// mixes hit-early and miss-late loads within one thread, which is
	// what reorders a thread's own loads (load buffering, IRIW).
	for t := range v.warm {
		switch robust.SplitMix64(x) % 4 {
		case 0:
			v.warm[t] = 0
		case 1:
			v.warm[t] = 0xff // every location (tests use far fewer than 8)
		default:
			v.warm[t] = robust.SplitMix64(x) & 0xff
		}
	}
	if robust.SplitMix64(x)%2 == 0 {
		v.faults = robust.Faults{
			Seed:          int64(robust.SplitMix64(x)),
			DelayProb:     []float64{0.1, 0.25, 0.5}[robust.SplitMix64(x)%3],
			MaxExtraDelay: int(robust.SplitMix64(x)%8) + 1,
		}
	}
	for t := range v.stagger {
		v.stagger[t] = int(robust.SplitMix64(x) % (maxStagger + 1))
	}
}

// haltProg occupies processors beyond the test's threads.
var haltProg = []isa.Inst{{Op: isa.HALT}}

// procsFor rounds a thread count up to a valid processor count.
func procsFor(threads int) int {
	p := 2
	for p < threads {
		p *= 2
	}
	return p
}

// RunSpec is the fully resolved plan of one seeded litmus run: the
// assembled per-thread programs (as re-assemblable text), the exact
// machine configuration the perturbation driver drew for the seed,
// the observed-load registry, and the shared addresses of the test's
// locations. It is the self-contained replay record embedded in
// violation verdicts and difftest repro bundles: Execute reproduces
// the run bit-exactly from the record alone, with no dependency on
// the test library or driver version that produced it.
type RunSpec struct {
	Test     string         `json:"test"`
	Model    string         `json:"model"`
	Seed     int64          `json:"seed"`
	Mutate   string         `json:"mutate,omitempty"`
	Programs []string       `json:"programs"` // asm text, one per test thread
	Machine  machine.Config `json:"machine"`
	Refs     []LoadRef      `json:"refs"`
	LocNames []string       `json:"loc_names"`
	LocAddrs []uint64       `json:"loc_addrs"`
	Desc     string         `json:"desc,omitempty"` // human-readable variation summary

	// A spec fresh from Setup carries the compiled programs and the
	// drawn variation instead of Programs and Desc; text derives those
	// two wherever the record is read as text. code is the array the
	// programs share; obs holds the outcome executeOn observed last.
	progs [][]isa.Inst
	code  []isa.Inst
	vari  variation
	obs   Outcome
}

// text fills in Programs and Desc on a spec fresh from Setup (a decoded
// one has them already). Nearly every run is executed and dropped, so
// Setup leaves the disassembly and the formatting to the three readers:
// a violation verdict, an error message and the JSON encoding.
func (rs *RunSpec) text() *RunSpec {
	if rs.Programs == nil && rs.progs != nil {
		rs.Programs = make([]string, len(rs.progs))
		for i, p := range rs.progs {
			rs.Programs[i] = asm.Disassemble(p)
		}
		rs.Desc = rs.vari.String()
	}
	return rs
}

// MarshalJSON encodes the complete replay record, text included.
func (rs RunSpec) MarshalJSON() ([]byte, error) {
	type plain RunSpec // the same fields without this method
	return json.Marshal((*plain)(rs.text()))
}

// Setup resolves one seeded run without executing it: it derives the
// perturbation variation from the seed, generates and assembles the
// test's programs, and returns the serializable RunSpec, new and the
// caller's to keep.
func Setup(t *Test, model consistency.Model, seed int64, mutate consistency.Mutation) (*RunSpec, error) {
	rs := new(RunSpec)
	if err := rs.setup(t, model, seed, mutate); err != nil {
		return nil, err
	}
	return rs, nil
}

// setup is Setup into rs, whose arrays it reuses: what a spec set up
// before held is overwritten.
func (rs *RunSpec) setup(t *Test, model consistency.Model, seed int64, mutate consistency.Mutation) error {
	x := uint64(seed)
	robust.SplitMix64(&x) // decorrelate consecutive seeds
	threads := t.NumThreads()
	v := rs.vari
	drawVariation(&x, threads, &v)
	v.layout.Stride = t.Stride

	code, progs, refs, err := t.emit(rs.code, rs.progs, rs.Refs, v.layout, v.stagger, v.warm)
	if err != nil {
		return err
	}
	*rs = RunSpec{
		Test:  t.Name,
		Model: model.String(),
		Seed:  seed,
		Machine: machine.Config{
			Procs:       procsFor(threads),
			Model:       model,
			CacheSize:   v.cacheSize,
			LineSize:    v.lineSize,
			MSHRs:       v.mshrs,
			NetBuf:      v.netBuf,
			LoadDelay:   v.loadDelay,
			SharedWords: 1 << 11,
			Faults:      v.faults,
			Mutate:      mutate,
		},
		Refs:     refs,
		LocNames: resize(rs.LocNames, t.NLocs),
		LocAddrs: resize(rs.LocAddrs, t.NLocs),
		progs:    progs,
		code:     code,
		vari:     v,
		obs:      rs.obs,
	}
	if mutate != consistency.MutNone {
		rs.Mutate = mutate.String()
	}
	for l := 0; l < t.NLocs; l++ {
		rs.LocNames[l] = t.locName(l)
		rs.LocAddrs[l] = v.layout.Addr(l)
	}
	return nil
}

// Execute runs the spec on a newly built simulated machine and returns
// the observed outcome key. A spec decoded from JSON re-assembles its
// embedded program text; one fresh from Setup reuses the compiled
// programs. A nil ctx runs uninterruptible; a canceled ctx surfaces
// as a Canceled SimError unwrapping to the context error.
func (rs *RunSpec) Execute(ctx context.Context) (string, error) {
	m := new(machine.Machine)
	o, err := rs.executeOn(ctx, &m)
	if err != nil {
		return "", err
	}
	return FormatKey(rs.Refs, rs.LocNames, o), nil
}

// executeOn is Execute on a machine the caller keeps, returning the
// outcome in arrays the record reuses: *m is reset to the spec, whatever
// ran on it before; a nil *m is acquired from the machine pool.
func (rs *RunSpec) executeOn(ctx context.Context, m **machine.Machine) (Outcome, error) {
	progs := rs.progs
	if progs == nil {
		progs = make([][]isa.Inst, len(rs.Programs))
		for i, src := range rs.Programs {
			p, err := asm.Assemble(src)
			if err != nil {
				return Outcome{}, fmt.Errorf("litmus: replay %s/%s seed %d thread %d: %w", rs.Test, rs.Model, rs.Seed, i, err)
			}
			progs[i] = p
		}
	}
	cfg := rs.Machine
	mu, err := consistency.ParseMutation(rs.Mutate)
	if err != nil {
		return Outcome{}, fmt.Errorf("litmus: replay %s/%s seed %d: %w", rs.Test, rs.Model, rs.Seed, err)
	}
	cfg.Mutate = mu // Config.Mutate is json:"-"; the string field is authoritative

	// The machine keeps its own list, so this one stays on the stack.
	all := append(make([][]isa.Inst, 0, 8), progs...)
	for len(all) < cfg.Procs {
		all = append(all, haltProg)
	}
	if *m == nil {
		*m, err = machine.Acquire(cfg, all)
	} else {
		err = (*m).Reset(cfg, all)
	}
	if err == nil {
		err = (*m).Drive(machine.RunControl{MaxEvents: runBudget, Ctx: ctx})
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("litmus: %s/%s seed %d (%s): %w", rs.Test, rs.Model, rs.Seed, rs.text().Desc, err)
	}

	o := Outcome{Loads: resize(rs.obs.Loads, len(rs.Refs)), Mem: resize(rs.obs.Mem, len(rs.LocAddrs))}
	for i, r := range rs.Refs {
		o.Loads[i] = (*m).CPU(r.Thread).Reg(r.Reg)
	}
	for l, addr := range rs.LocAddrs {
		o.Mem[l] = (*m).ReadWord(addr)
	}
	rs.obs = o
	return o, nil
}

// runScratch is what Run reuses between calls: the explorer, the replay
// record, and per allowed word its count and first seed.
type runScratch struct {
	x     Explorer
	rs    RunSpec
	count []int
	first []int64
}

var scratches = sync.Pool{New: func() any { return new(runScratch) }}

// Run executes the full perturbed conformance sweep of one test under
// one model and returns the verdict report. The allowed set always
// reflects the unmutated model contract; a test beyond the engine's
// capacity is an error. This is the only seeded check loop: the
// differential tester and the comparator's witness replay call it on
// their synthesized tests. It takes one machine from the pool for all
// its seeds and releases it with the report.
//
// An outcome is checked and counted as a word; keys are formatted for
// the report alone. One that packs to no allowed word is a violation,
// under its FormatKey key.
func Run(t *Test, model consistency.Model, cfg Config) (*Report, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	sc := scratches.Get().(*runScratch)
	defer scratches.Put(sc)
	words, err := sc.x.Words(t, consistency.SpecFor(model))
	if err != nil {
		return nil, err
	}
	sc.count, sc.first = resize(sc.count, len(words)), resize(sc.first, len(words))
	count, first := sc.count, sc.first
	clear(count)

	rep := &Report{Test: t.Name, Model: model.String(), Runs: cfg.Runs,
		Witnessed: make(map[string]int), FirstSeed: make(map[string]int64)}
	if cfg.Mutate != consistency.MutNone {
		rep.Mutate = cfg.Mutate.String()
	}
	// One pooled machine and one replay record serve every run, reset
	// to each run's seed: a run then costs its simulation, not a
	// construction.
	var m *machine.Machine
	rs := &sc.rs
	for i := 0; i < cfg.Runs; i++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			rep.Runs, rep.Interrupted = i, true
			break
		}
		seed := cfg.Seed + int64(i)
		if err := rs.setup(t, model, seed, cfg.Mutate); err != nil {
			return nil, err
		}
		o, err := rs.executeOn(cfg.Ctx, &m)
		if err != nil {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil && errors.Is(err, cfg.Ctx.Err()) {
				// Canceled mid-run: the partial coverage so far is the
				// report, not an error.
				rep.Runs, rep.Interrupted = i, true
				break
			}
			return nil, err
		}
		if w, ok := sc.x.Pack(o); ok {
			if j, found := slices.BinarySearch(words, w); found {
				if count[j] == 0 {
					first[j] = seed
				}
				count[j]++
				continue
			}
		}
		// The run's full spec rides along in the verdict, so it replays
		// without this library: a record of its own, since Run's is
		// set up again for the next seed.
		v, err := Setup(t, model, seed, cfg.Mutate)
		if err != nil {
			return nil, err
		}
		key := FormatKey(rs.Refs, rs.LocNames, o)
		if rep.Witnessed[key] == 0 {
			rep.FirstSeed[key] = seed
		}
		rep.Witnessed[key]++
		rep.Violations = append(rep.Violations, Violation{Seed: seed, Config: v.text().Desc, Outcome: key, Replay: v})
	}
	if m != nil {
		m.Release()
	}
	rep.Allowed = make([]string, len(words))
	for j, w := range words {
		key := sc.x.Key(w)
		rep.Allowed[j] = key
		if count[j] > 0 {
			rep.Witnessed[key], rep.FirstSeed[key] = count[j], first[j]
		}
	}
	slices.Sort(rep.Allowed)
	return rep, nil
}

// WitnessedKeys returns the witnessed outcome keys, sorted.
func (r *Report) WitnessedKeys() []string {
	keys := make([]string, 0, len(r.Witnessed))
	for k := range r.Witnessed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
