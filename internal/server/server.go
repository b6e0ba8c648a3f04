// Package server implements memsimd: simulation-as-a-service over the
// experiments Runner, engineered robustness-first.
//
// The service accepts Config/sweep submissions over HTTP/JSON and runs
// them on a bounded worker pool. Every layer is built to survive
// failure:
//
//   - Results are content-addressed: the job id is a hash of the
//     parameter preset (which fixes the simulated programs) and the
//     canonical spec key, and completed Results persist in an on-disk
//     cache of atomically-written, checksum-verified JSON entries. A
//     million identical submissions cost one simulation; a kill -9
//     mid-write costs at most a rerun, never a wrong answer.
//   - The job queue is journaled to the same fsynced JSONL format the
//     sweep driver uses (queued/running/preempted/done/failed lines),
//     so a restarted server re-admits its backlog and resumes
//     in-flight jobs from their MCSP checkpoints instead of rerunning
//     them from scratch.
//   - Jobs run with per-job contexts layered on the Runner's
//     timeout/retry/backoff resilience; preemption (drain or explicit
//     request) cancels the context, which checkpoints the machine and
//     requeues the job. Worker panics — a poisoned config, an injected
//     fault — are recovered into typed failures; the pool survives.
//   - Overload degrades gracefully: admission control bounds the
//     queue, excess submissions are shed with 429 + Retry-After, and
//     cache hits keep serving throughout (including while draining).
//   - Shutdown is two-stage: Drain stops admitting, checkpoints
//     in-flight runs, journals their preemption and exits cleanly; a
//     second signal (or Kill, which models kill -9) abandons the
//     journal mid-stream — which the replay path is built to survive.
//
// The chaostest subpackage drives a real server through seeded
// schedules of crashes, panics, snapshot-write faults, overload and
// slow clients, asserting after every recovery that served Results
// are byte-identical to direct Runner output and that no job is lost
// or double-completed.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/robust"
)

// Hooks are test seams for the chaos harness; all may be nil.
type Hooks struct {
	// BeforeRun fires in the worker goroutine just before a job's
	// simulation starts. The chaos harness panics here (worker-panic
	// injection) and gates here (deterministic overload).
	BeforeRun func(key string)
	// SnapshotWrite replaces machine.WriteSnapshotFile for checkpoint
	// persistence; the chaos harness injects disk-full and short-write
	// failures.
	SnapshotWrite func(path string, s *machine.Snapshot) error
}

// Config parameterizes a Server.
type Config struct {
	// Params is the simulation parameter preset every job runs under.
	Params experiments.Params
	// StateDir holds the journal, result cache and checkpoints; ""
	// runs ephemeral (no persistence, no crash recovery).
	StateDir string
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueCap bounds admitted-but-unstarted jobs; submissions beyond
	// it are shed with 429 (default 64).
	QueueCap int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration

	// Runner resilience knobs (see experiments.Runner).
	Timeout   time.Duration
	Retries   int
	Backoff   time.Duration
	CkptEvery uint64 // simulated cycles between checkpoints (default 2M)

	// Log, when non-nil, receives one line per server event and per
	// fresh simulation run.
	Log io.Writer

	Hooks Hooks
}

// Server is the memsimd service core. Create with New, serve its
// Handler, stop with Drain (graceful) or Kill (crash simulation).
type Server struct {
	cfg        Config
	paramsJSON []byte
	runner     *experiments.Runner
	cache      *Cache
	journal    *experiments.Journal
	queue      *queue

	runCtx  context.Context
	stopRun context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	draining bool
	// killed is read by journalAppend, whose callers may hold mu.
	killed atomic.Bool

	admitted, shed, cacheHits  atomic.Uint64
	completed, failed          atomic.Uint64
	preempted, panics, resumed atomic.Uint64
}

// New builds a Server, replaying any existing journal in StateDir:
// completed jobs whose cache entries verify are recalled, everything
// else still pending is re-admitted, and in-flight jobs resume from
// their checkpoints when their workers pick them back up. The worker
// pool is running when New returns.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.CkptEvery == 0 {
		cfg.CkptEvery = 2_000_000
	}
	paramsJSON, err := json.Marshal(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("server: encoding params: %w", err)
	}

	s := &Server{
		cfg:        cfg,
		paramsJSON: paramsJSON,
		queue:      newQueue(cfg.QueueCap),
		jobs:       make(map[string]*Job),
	}
	s.runCtx, s.stopRun = context.WithCancel(context.Background())

	r := experiments.NewRunner(cfg.Params)
	r.Log = cfg.Log
	r.Timeout = cfg.Timeout
	r.Retries = cfg.Retries
	r.Backoff = cfg.Backoff
	s.runner = r

	cacheDir := ""
	if cfg.StateDir != "" {
		cacheDir = filepath.Join(cfg.StateDir, "cache")
		r.Ckpt = experiments.CheckpointPolicy{
			Dir:   filepath.Join(cfg.StateDir, "ckpt"),
			Every: cfg.CkptEvery,
			Write: cfg.Hooks.SnapshotWrite,
		}
	}
	if s.cache, err = NewCache(cacheDir); err != nil {
		return nil, err
	}

	if cfg.StateDir != "" {
		jpath := filepath.Join(cfg.StateDir, "journal.jsonl")
		if err := s.recoverJournal(jpath); err != nil {
			return nil, err
		}
		if s.journal, err = experiments.OpenJournal(jpath); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJournal replays the previous incarnation's journal. The last
// status per job wins: done entries are recalled through the verified
// result cache (a lost or corrupt cache file degrades to a rerun);
// queued, running and preempted entries are re-admitted in journal
// order; failed entries are kept as terminal records a client can
// retry by resubmitting. A torn final line — the kill -9 signature —
// is tolerated by ReplayJournal itself.
func (s *Server) recoverJournal(path string) error {
	entries, err := experiments.ReplayJournal(path)
	if err != nil {
		return err
	}
	type rec struct {
		key    string
		spec   experiments.RunSpec
		status experiments.Status
		errmsg string
	}
	recs := make(map[string]*rec)
	var order []string
	for i := range entries {
		e := &entries[i]
		if e.Status == experiments.StatusSweepEnd {
			continue
		}
		id := jobID(s.paramsJSON, e.Key)
		r, ok := recs[id]
		if !ok {
			r = &rec{key: e.Key, spec: e.Spec}
			recs[id] = r
			order = append(order, id)
		}
		r.status = e.Status
		r.errmsg = e.Err
	}
	for _, id := range order {
		r := recs[id]
		switch r.status {
		case experiments.StatusDone:
			if e, ok := s.cache.Get(id); ok {
				s.jobs[id] = doneJob(e)
				continue
			}
			// Journal says done but the result is gone: pretend it never
			// finished and run it again.
			s.logf("completed job %s lost its cache entry; re-running", r.key)
			fallthrough
		case experiments.StatusQueued, experiments.StatusRunning, experiments.StatusPreempted:
			j := newJob(id, r.key, r.spec)
			s.jobs[id] = j
			s.queue.Requeue(j)
			s.resumed.Add(1)
		case experiments.StatusFailed:
			s.jobs[id] = failedJob(id, r.key, r.spec, r.errmsg)
		}
	}
	if n := s.resumed.Load(); n > 0 {
		s.logf("resumed %d pending job(s) from %s", n, path)
	}
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "memsimd: "+format+"\n", args...)
}

// journalAppend records a lifecycle transition; after Kill the journal
// is gone mid-stream and the append is deliberately lost, exactly as
// a crashed process would lose it.
func (s *Server) journalAppend(e experiments.JournalEntry) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(e); err != nil && !s.killed.Load() {
		s.logf("journal: %v", err)
	}
}

// submit routes one spec: cache hit → done response (always served,
// even draining or overloaded); a spec the machine refuses → 400;
// known job → its current state; new job → admission control. The
// returned code is the HTTP status.
func (s *Server) submit(spec experiments.RunSpec) (JobResponse, int) {
	key := s.runner.Key(spec)
	id := jobID(s.paramsJSON, key)
	if e, ok := s.cache.Get(id); ok {
		s.cacheHits.Add(1)
		return e.response(true), http.StatusOK
	}
	if err := s.runner.Validate(spec); err != nil {
		return JobResponse{ID: id, Key: key, Error: err.Error()}, http.StatusBadRequest
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		switch j.Status() {
		case experiments.StatusDone:
			return j.response(true), http.StatusOK
		case experiments.StatusFailed:
			// A resubmitted failure retries (failures are never cached) as
			// a fresh job, passing back through admission control.
		default:
			return j.response(false), http.StatusAccepted
		}
	}
	return s.admit(newJob(id, key, spec))
}

// admit passes a new job through admission control: refused while
// draining, shed when the queue is full, else journaled and queued.
// The caller holds s.mu.
func (s *Server) admit(j *Job) (JobResponse, int) {
	if s.draining {
		return JobResponse{ID: j.id, Key: j.key, Error: "server is draining"}, http.StatusServiceUnavailable
	}
	if !s.queue.TryAdmit(j) {
		s.shed.Add(1)
		return JobResponse{ID: j.id, Key: j.key, Error: "queue full"}, http.StatusTooManyRequests
	}
	s.jobs[j.id] = j
	s.admitted.Add(1)
	s.journalAppend(experiments.JournalEntry{Key: j.key, Spec: j.spec, Status: experiments.StatusQueued})
	return j.response(false), http.StatusAccepted
}

// worker drains the queue until the server drains or dies.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job under a per-job context. Success caches and
// journals the result; cancellation (preempt or drain) journals a
// preempted entry — the machine checkpoint was already written by the
// Runner — and requeues; anything else is a terminal failure.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	j.start(cancel)
	s.journalAppend(experiments.JournalEntry{Key: j.key, Spec: j.spec, Status: experiments.StatusRunning})

	res, err := s.protectedRun(ctx, j)
	switch {
	case err == nil:
		e := newCacheEntry(j.id, j.key, j.spec, res)
		if cerr := s.cache.Put(e); cerr != nil {
			s.logf("cache write for %s: %v", j.key, cerr)
		}
		s.journalAppend(experiments.JournalEntry{Key: j.key, Spec: j.spec,
			Status: experiments.StatusDone, Checksum: e.Checksum})
		j.complete(e)
		s.completed.Add(1)
	case errors.Is(err, context.Canceled):
		s.preempted.Add(1)
		s.journalAppend(experiments.JournalEntry{Key: j.key, Spec: j.spec, Status: experiments.StatusPreempted})
		j.requeued()
		if s.runCtx.Err() == nil {
			// Explicit preemption: back of the queue. On drain the queue
			// is closing; the preempted journal entry carries the job to
			// the next incarnation instead.
			s.queue.Requeue(j)
		}
	default:
		var se *robust.SimError
		if errors.As(err, &se) && se.Kind == robust.Panic {
			s.panics.Add(1)
			s.logf("worker recovered a panic on %s: %v", j.key, se.Detail)
		}
		s.journalAppend(experiments.JournalEntry{Key: j.key, Spec: j.spec,
			Status: experiments.StatusFailed, Err: err.Error()})
		j.fail(err)
		s.failed.Add(1)
	}
}

// protectedRun invokes the hook and the Runner with a final layer of
// panic protection: the Runner already recovers panics inside the
// simulation, and this recover covers the hook and the worker's own
// code, so nothing a job does can take the pool down.
func (s *Server) protectedRun(ctx context.Context, j *Job) (res machine.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &robust.SimError{
				Kind: robust.Panic, Component: "server", Unit: -1,
				Detail: fmt.Sprint(rec),
				Dump:   string(debug.Stack()),
			}
		}
	}()
	if h := s.cfg.Hooks.BeforeRun; h != nil {
		h(j.key)
	}
	return s.runner.RunCtx(ctx, j.spec)
}

// Preempt checkpoints and requeues a running job. It reports whether
// the job existed and was running.
func (s *Server) Preempt(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	return ok && j.preempt()
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain is graceful-shutdown stage one: stop admitting, cancel
// in-flight jobs (each writes a final MCSP checkpoint and is
// journaled preempted), wait for the workers, and close the journal.
// Queued jobs stay journaled for the next incarnation. Cache hits
// keep being served until the HTTP listener itself stops.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()
	s.logf("draining: admission stopped, checkpointing in-flight jobs")
	s.queue.Close()
	s.stopRun()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
	s.logf("drained")
}

// Kill abandons the server the way kill -9 would at the state-machine
// level: the journal is closed mid-stream so every in-flight append
// is lost (a torn tail the replay path must tolerate), no preemption
// or completion records are written, and nothing is flushed on the
// way out. In-process we must still reap the goroutines — a real
// SIGKILL would be even harsher only in ways the on-disk state cannot
// distinguish.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.killed.Load() {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.killed.Store(true)
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.Close()
	}
	s.queue.Close()
	s.stopRun()
	s.wg.Wait()
}

// Stats snapshots the operational counters.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	jobs := make(map[string]int)
	for _, j := range s.jobs {
		jobs[string(j.Status())]++
	}
	draining := s.draining
	s.mu.Unlock()
	return StatsResponse{
		Preset:   s.cfg.Params.Name,
		Workers:  s.cfg.Workers,
		QueueCap: s.cfg.QueueCap,
		QueueLen: s.queue.Len(),
		Draining: draining,
		Jobs:     jobs,
		Admitted: s.admitted.Load(),
		Shed:     s.shed.Load(),
		CacheHit: s.cacheHits.Load(),
		Done:     s.completed.Load(),
		Failed:   s.failed.Load(),
		Preempts: s.preempted.Load(),
		Panics:   s.panics.Load(),
		Resumed:  s.resumed.Load(),
	}
}

// maxWait caps the long-poll duration of GET /api/v1/jobs/{id}?wait=.
const maxWait = 2 * time.Minute

// Handler returns the HTTP API:
//
//	POST /api/v1/jobs               submit one spec
//	GET  /api/v1/jobs/{id}          job state; ?wait=10s long-polls
//	POST /api/v1/jobs/{id}/preempt  checkpoint + requeue a running job
//	POST /api/v1/sweep              submit a batch of specs
//	GET  /api/v1/stats              operational counters
//	GET  /healthz                   liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /api/v1/jobs/{id}/preempt", s.handlePreempt)
	mux.HandleFunc("POST /api/v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	resp, code := s.submit(spec)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	}
	if code >= 400 {
		writeJSON(w, code, errorResponse{resp.Error})
		return
	}
	writeJob(w, code, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	out := SweepResponse{Jobs: make([]SweepItem, 0, len(req.Specs))}
	for _, sr := range req.Specs {
		spec, err := sr.Spec()
		if err != nil {
			out.Jobs = append(out.Jobs, SweepItem{
				JobResponse: JobResponse{Error: err.Error()}, Code: http.StatusBadRequest})
			continue
		}
		resp, code := s.submit(spec)
		if code == http.StatusTooManyRequests {
			out.Shed++
		}
		out.Jobs = append(out.Jobs, SweepItem{JobResponse: resp, Code: code})
	}
	if out.Shed > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		// Not in the live job table: completed in a previous incarnation?
		if e, ok := s.cache.Get(id); ok {
			s.cacheHits.Add(1)
			writeJob(w, http.StatusOK, e.response(true))
			return
		}
		writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("unknown job %q", id)})
		return
	}
	if waitS := r.URL.Query().Get("wait"); waitS != "" {
		d, err := time.ParseDuration(waitS)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad wait duration %q", waitS)})
			return
		}
		if d > maxWait {
			d = maxWait
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	writeJob(w, http.StatusOK, j.response(false))
}

func (s *Server) handlePreempt(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Preempt(id) {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "preempting"})
		return
	}
	writeJSON(w, http.StatusConflict, errorResponse{fmt.Sprintf("job %q is not running", id)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// decodeJSON reads a bounded JSON body strictly: a field the request
// type lacks (a misspelt "proc" would otherwise run, and content-
// address, the default) and anything after the value are errors.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("server: decoding request: trailing data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeJob serves a job reply: the bytes it carries when its cache
// entry already encoded it, else through the encoder, which splices
// Result (a RawMessage) rather than reflecting over a machine.Result.
func writeJob(w http.ResponseWriter, code int, resp JobResponse) {
	if resp.body == nil {
		writeJSON(w, code, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(code)
	w.Write(resp.body)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
