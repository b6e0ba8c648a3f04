package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"memsim/internal/consistency"
	"memsim/internal/machine"
	"memsim/internal/metrics"
	"memsim/internal/robust"
	"memsim/internal/workloads"
)

// Bench names one of the paper's benchmarks.
type Bench string

// The four benchmarks.
const (
	BGauss Bench = "Gauss"
	BQsort Bench = "Qsort"
	BRelax Bench = "Relax"
	BPsim  Bench = "Psim"
)

// Benches lists the paper's benchmarks in presentation order.
var Benches = []Bench{BGauss, BQsort, BRelax, BPsim}

// RunSpec identifies one simulation configuration.
type RunSpec struct {
	Bench     Bench
	Model     consistency.Model
	CacheSize int
	LineSize  int
	LoadDelay int // 0: use Params default
	Procs     int // 0: use Params default
	MSHRs     int // 0: the paper's 5
	// RelaxSched selects the Relax inner-loop schedule (Figure 9).
	RelaxSched workloads.RelaxSchedule
}

// CheckpointPolicy makes fresh runs crash-tolerant: every Every cycles
// of simulated time the machine's complete state is written (atomically)
// to a per-run snapshot file under Dir, and a run finding a valid
// snapshot for its key resumes from it instead of starting over. A
// corrupt, stale or incompatible snapshot falls back to a fresh run.
// Snapshot files are removed when their run completes.
type CheckpointPolicy struct {
	Dir   string
	Every uint64 // simulated cycles between checkpoints; 0 checkpoints only on cancellation

	// Write, when non-nil, replaces machine.WriteSnapshotFile for
	// checkpoint persistence. Fault-injection harnesses hook disk-full
	// and short-write failures here; a failed write never fails the
	// run — it only coarsens crash-recovery granularity.
	Write func(path string, s *machine.Snapshot) error
}

// Runner executes simulations for a parameter preset, memoizing
// results so baselines shared between figures run once.
//
// A Runner is safe for concurrent use: memoization is single-flight
// (concurrent Run calls for the same spec execute it once and share
// the result) and Log lines are written atomically.
type Runner struct {
	Params Params
	// Log, when non-nil, receives one line per fresh simulation run.
	Log io.Writer
	// MetricsSink, when non-nil, makes every fresh run carry a metrics
	// collector; the sink receives it together with the run's result.
	// Memoized recalls do not re-invoke the sink.
	MetricsSink func(desc string, res machine.Result, mc *metrics.Collector)

	// BaseCtx, when non-nil, cancels every run when it is canceled
	// (e.g. from a signal handler). A canceled run fails with a
	// Canceled SimError that unwraps to the context error.
	BaseCtx context.Context
	// Timeout, when nonzero, bounds each simulation attempt in
	// wall-clock time; a timed-out attempt is retryable.
	Timeout time.Duration
	// Retries is how many times a failed run is re-attempted. Only
	// transient failures retry: wall-clock timeouts and Stall /
	// EventLimit / Deadlock simulation errors. Protocol, invariant and
	// program errors, workload validation failures, and BaseCtx
	// cancellation never retry.
	Retries int
	// Backoff is the wait before the first retry; it doubles per
	// attempt. Zero retries immediately.
	Backoff time.Duration
	// Ckpt enables periodic checkpointing and resume (zero disables).
	Ckpt CheckpointPolicy

	// Lifecycle hooks for journaling orchestrators; all may be nil.
	// Keys are stable per spec (see Key). Hooks for one run are called
	// exactly once per Run-level execution (retries do not re-fire
	// OnStart), and never for memoized recalls.
	OnStart   func(key string, spec RunSpec)
	OnResult  func(key string, spec RunSpec, res machine.Result)
	OnFailure func(key string, spec RunSpec, err error)

	*memo
}

// memo is a Runner's single-flight result memo and its locks. It sits
// behind a pointer so WithParams copies every exported field of a
// Runner at once, whatever fields later changes add.
type memo struct {
	mu       sync.Mutex
	cache    map[RunSpec]machine.Result
	inflight map[RunSpec]chan struct{}
	logMu    sync.Mutex
}

func newMemo() *memo {
	return &memo{
		cache:    make(map[RunSpec]machine.Result),
		inflight: make(map[RunSpec]chan struct{}),
	}
}

// NewRunner builds a Runner for the preset.
func NewRunner(p Params) *Runner { return &Runner{Params: p, memo: newMemo()} }

// WithParams derives a Runner for other Params: the same log, sinks,
// context, retry and checkpoint policy and hooks, and an empty memo,
// since a result under other Params is another result.
func (r *Runner) WithParams(p Params) *Runner {
	nr := *r
	nr.Params, nr.memo = p, newMemo()
	return &nr
}

// logf writes one line to Log under the log mutex.
func (r *Runner) logf(format string, args ...interface{}) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	fmt.Fprintf(r.Log, format, args...)
	r.logMu.Unlock()
}

// workload instantiates the benchmark for a spec.
func (r *Runner) workload(s RunSpec) workloads.Workload {
	p := r.Params
	procs := s.Procs
	if procs == 0 {
		procs = p.Procs
	}
	if w, ok := ablationWorkload(p, s); ok {
		return w
	}
	switch s.Bench {
	case BGauss:
		n := p.GaussN
		if procs != p.Procs && p.GaussN32 != 0 {
			// Figure 6 runs at 32 processors: scale the matrix so the
			// per-processor working set keeps the paper's relationship
			// to the caches (and the barrier share of run time stays
			// realistic).
			n = p.GaussN32
		}
		if n < procs {
			// Keep at least one matrix row per processor on machines
			// larger than the preset sizes anticipated.
			n = procs
		}
		return workloads.Gauss(procs, n, p.Seed)
	case BQsort:
		return workloads.Qsort(procs, p.QsortN, p.Seed)
	case BRelax:
		n := p.RelaxN
		if n < procs {
			// Machines larger than the preset's grid: grow the grid so
			// every processor owns at least one row.
			n = procs
		}
		return workloads.Relax(procs, n, p.RelaxIters, s.RelaxSched, p.Seed)
	case BPsim:
		ports := p.PsimPorts
		if ports < procs {
			// Machines larger than the preset's simulated network:
			// scale the problem with the machine (four ports per
			// processor, the benchmark's natural radix) instead of
			// leaving processors past the port count with no packets
			// to inject — workloads.Psim rejects that outright.
			ports = 4 * procs
		}
		return workloads.Psim(procs, ports, p.PsimRefs, p.Seed)
	}
	panic(fmt.Sprintf("experiments: unknown benchmark %q", s.Bench))
}

// normalize rewrites explicit preset defaults to zero so memoization
// (and journal keys) unify equivalent specs.
func (r *Runner) normalize(s RunSpec) RunSpec {
	p := r.Params
	if s.LoadDelay == p.LoadDelay {
		s.LoadDelay = 0
	}
	if s.Procs == p.Procs {
		s.Procs = 0
	}
	return s
}

// Key returns the stable identifier journals and checkpoints use for a
// spec, e.g. "Gauss/SC1/cache4K/line8".
func (r *Runner) Key(s RunSpec) string { return describe(r.normalize(s)) }

// Build takes a pooled machine, as new, for a spec with its workload set
// up but not yet run; it is the caller's, to keep or to Release. Callers
// drive the simulation themselves — e.g. the snapshot property tests,
// which pause mid-run via machine.RunControl. The machine is not
// memoized and does not pass through retry or checkpoint policy.
func (r *Runner) Build(s RunSpec) (*machine.Machine, error) {
	s = r.normalize(s)
	w := r.workload(s)
	m, _, err := r.build(s, w)
	if err != nil {
		return nil, err
	}
	if w.Setup != nil {
		w.Setup(m.Shared())
	}
	return m, nil
}

// Seed preloads the memoization cache from replayed journal entries,
// so a resumed sweep recalls completed runs instead of re-simulating
// them. Entries whose embedded result does not reproduce its recorded
// checksum are ignored (a corrupt journal line degrades to a rerun,
// never to a wrong result). It returns how many results were loaded.
func (r *Runner) Seed(entries []JournalEntry) int {
	n := 0
	for i := range entries {
		e := &entries[i]
		if e.Status != StatusDone || e.Result == nil || e.Result.Checksum() != e.Checksum {
			continue
		}
		s := r.normalize(e.Spec)
		r.mu.Lock()
		if _, ok := r.cache[s]; !ok {
			r.cache[s] = *e.Result
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// Run executes (or recalls) one configuration, validating the
// workload's result. It is RunCtx under the Runner-wide BaseCtx.
func (r *Runner) Run(s RunSpec) (machine.Result, error) {
	return r.RunCtx(nil, s)
}

// RunCtx is Run with a per-call context layered over BaseCtx (nil
// falls back to BaseCtx alone). Orchestrators that preempt or time out
// individual jobs — rather than whole sweeps — cancel here: the
// in-flight attempt writes a final checkpoint and fails with a
// Canceled SimError, and a later call resumes from that checkpoint. A
// caller waiting on another goroutine's identical in-flight run stops
// waiting when its own context is canceled; the flight itself keeps
// the context it was started with.
func (r *Runner) RunCtx(ctx context.Context, s RunSpec) (machine.Result, error) {
	if ctx == nil {
		ctx = r.BaseCtx
	}
	s = r.normalize(s)
	for {
		r.mu.Lock()
		if res, ok := r.cache[s]; ok {
			r.mu.Unlock()
			return res, nil
		}
		done, busy := r.inflight[s]
		if !busy {
			done = make(chan struct{})
			r.inflight[s] = done
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()
		// Another goroutine is running this spec: wait for it, then
		// re-check the cache. Errors are not cached, so a failed flight
		// lets the next waiter retry.
		if ctx != nil {
			select {
			case <-done:
			case <-ctx.Done():
				return machine.Result{}, ctx.Err()
			}
		} else {
			<-done
		}
	}
	res, err := r.execute(ctx, s)
	r.mu.Lock()
	if err == nil {
		r.cache[s] = res
	}
	done := r.inflight[s]
	delete(r.inflight, s)
	r.mu.Unlock()
	close(done)
	return res, err
}

// execute performs one simulation run for a normalized spec, with
// retry/backoff around individual attempts and lifecycle hooks around
// the whole execution.
func (r *Runner) execute(ctx context.Context, s RunSpec) (machine.Result, error) {
	key := describe(s)
	if r.OnStart != nil {
		r.OnStart(key, s)
	}
	var res machine.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = r.attempt(ctx, s, key)
		if err == nil {
			break
		}
		if attempt >= r.Retries || !retryable(err) {
			break
		}
		wait := r.Backoff << attempt
		r.logf("  retrying %s in %v (attempt %d/%d): %v\n", key, wait, attempt+1, r.Retries, err)
		if !r.sleep(ctx, wait) {
			break // canceled while backing off
		}
	}
	if err != nil {
		if r.OnFailure != nil {
			r.OnFailure(key, s, err)
		}
		return machine.Result{}, err
	}
	if r.OnResult != nil {
		r.OnResult(key, s, res)
	}
	return res, nil
}

// retryable reports whether a failed attempt is worth re-running:
// wall-clock timeouts (the machine resumes from its final checkpoint)
// and liveness failures. Determinism bugs, protocol slips and workload
// validation failures reproduce exactly, so retrying them is noise.
func retryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var se *robust.SimError
	if errors.As(err, &se) {
		switch se.Kind {
		case robust.Stall, robust.EventLimit, robust.Deadlock:
			return true
		}
	}
	return false
}

// sleep waits d, returning early (false) if ctx is canceled.
func (r *Runner) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx == nil || ctx.Err() == nil
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ckptPath returns the snapshot file for a key, or "" when
// checkpointing is disabled.
func (r *Runner) ckptPath(key string) string {
	if r.Ckpt.Dir == "" {
		return ""
	}
	return filepath.Join(r.Ckpt.Dir, FileName(key)+".mcsp")
}

// FileName flattens a run key into a file base name: checkpoints,
// failure dumps and metrics reports are all named with it.
func FileName(key string) string {
	return strings.NewReplacer("/", "_", " ", "").Replace(key)
}

// build takes a pooled machine (and attaches a new collector, if the
// sink wants one) for a spec.
func (r *Runner) build(s RunSpec, w workloads.Workload) (*machine.Machine, *metrics.Collector, error) {
	p := r.Params
	delay := s.LoadDelay
	if delay == 0 {
		delay = p.LoadDelay
	}
	cfg := machine.Config{
		Procs:       w.Procs,
		Model:       s.Model,
		CacheSize:   s.CacheSize,
		LineSize:    s.LineSize,
		LoadDelay:   delay,
		MSHRs:       s.MSHRs,
		SharedWords: w.SharedWords,
	}
	m, err := machine.Acquire(cfg, w.Programs)
	if err != nil {
		return nil, nil, err
	}
	var mc *metrics.Collector
	if r.MetricsSink != nil {
		mc = metrics.New()
		m.AttachMetrics(mc)
	}
	return m, mc, nil
}

// attempt performs one fresh simulation attempt for a normalized spec,
// resuming from a valid checkpoint when one exists. Foreign panics
// anywhere in the attempt — workload construction, setup, validation,
// or a genuine simulator bug escaping RunControlled — are recovered
// into a typed Panic SimError carrying the goroutine stack, so one
// poisoned config fails its own run instead of killing the caller's
// worker goroutine. The machine goes back to the pool unless a panic
// left it in a state nobody knows.
func (r *Runner) attempt(ctx context.Context, s RunSpec, key string) (res machine.Result, err error) {
	var m *machine.Machine
	defer func() {
		rec := recover()
		if rec == nil {
			if m != nil {
				m.Release()
			}
			return
		}
		se, typed := robust.Recovered(rec)
		if !typed {
			se = &robust.SimError{
				Kind: robust.Panic, Component: "runner", Unit: -1,
				Detail: fmt.Sprint(rec),
				Dump:   string(debug.Stack()),
			}
		}
		res, err = machine.Result{}, fmt.Errorf("experiments: %s: %w", key, se)
	}()
	p := r.Params
	w := r.workload(s)
	m, mc, err := r.build(s, w)
	if err != nil {
		return machine.Result{}, fmt.Errorf("experiments: %s: %w", key, err)
	}

	ckpt := r.ckptPath(key)
	restored := false
	if ckpt != "" {
		if snap, rerr := machine.ReadSnapshotFile(ckpt); rerr == nil {
			if lerr := m.Restore(snap); lerr != nil {
				// Stale or incompatible snapshot: the next Acquire resets
				// what it left, and the run starts fresh.
				r.logf("  checkpoint for %s unusable (%v); rerunning\n", key, lerr)
				m.Release()
				if m, mc, err = r.build(s, w); err != nil {
					return machine.Result{}, fmt.Errorf("experiments: %s: %w", key, err)
				}
			} else {
				restored = true
				r.logf("  resumed %s from checkpoint at cycle %d\n", key, m.Eng.Now())
			}
		} else if !errors.Is(rerr, os.ErrNotExist) {
			r.logf("  checkpoint for %s unreadable (%v); rerunning\n", key, rerr)
		}
	}
	if !restored && w.Setup != nil {
		w.Setup(m.Shared())
	}

	if r.Timeout > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, r.Timeout)
		defer cancel()
	}
	rc := machine.RunControl{MaxEvents: p.MaxEvents, Ctx: ctx}
	if ckpt != "" {
		// With a checkpoint path, a canceled or timed-out run always
		// saves a final snapshot, so resume loses no progress even when
		// CheckpointEvery is zero.
		write := r.Ckpt.Write
		if write == nil {
			write = machine.WriteSnapshotFile
		}
		rc.CheckpointEvery = r.Ckpt.Every
		rc.Checkpoint = func() error {
			snap, serr := m.Snapshot()
			if serr != nil {
				return serr // the machine failing to snapshot itself is a real bug
			}
			if werr := write(ckpt, snap); werr != nil {
				// A checkpoint that cannot reach disk (full disk, short
				// write) must not fail a run that is computing fine: the
				// result does not depend on it, only how much a crash
				// would lose. Log and keep simulating.
				r.logf("  checkpoint write for %s failed (%v); continuing\n", key, werr)
			}
			return nil
		}
	}
	res, err = m.RunControlled(rc)
	if err != nil {
		return machine.Result{}, fmt.Errorf("experiments: %s: %w", key, err)
	}
	if w.Validate != nil {
		if err := w.Validate(m.Shared()); err != nil {
			return machine.Result{}, fmt.Errorf("experiments: %s: %w", key, err)
		}
	}
	if ckpt != "" {
		os.Remove(ckpt) // the run is done; its checkpoint is spent
	}
	r.logf("  ran %-40s %12d cycles  (hit %5.1f%%)\n",
		key, res.Cycles, 100*res.HitRate())
	if r.MetricsSink != nil {
		r.MetricsSink(key, res, mc)
	}
	return res, nil
}

func describe(s RunSpec) string {
	d := fmt.Sprintf("%s/%s/cache%dK/line%d", s.Bench, s.Model, s.CacheSize>>10, s.LineSize)
	if s.Bench == BRelax && s.RelaxSched != workloads.RelaxDefault {
		d += "/" + s.RelaxSched.String()
	}
	if s.LoadDelay != 0 {
		d += fmt.Sprintf("/delay%d", s.LoadDelay)
	}
	if s.Procs != 0 {
		d += fmt.Sprintf("/procs%d", s.Procs)
	}
	if s.MSHRs != 0 {
		d += fmt.Sprintf("/mshr%d", s.MSHRs)
	}
	return d
}
