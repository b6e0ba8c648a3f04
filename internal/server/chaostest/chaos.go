// Package chaostest drives a real memsimd server through seeded
// schedules of faults — kill -9 style crashes, graceful restarts,
// injected worker panics, disk-full and short-write checkpoint
// failures, overload bursts and stalled clients — and then verifies
// the robustness contract:
//
//   - no accepted job is ever lost: after recovery, every submission
//     that was acknowledged (200/202) runs to completion;
//   - no job is double-completed: the journal holds at most one done
//     record per key across every server incarnation;
//   - every served result is byte-identical to what a direct
//     experiments.Runner produces for the same spec: each done reply's
//     result is decoded and must itself reproduce the direct run's
//     checksum over the canonical Result encoding, whatever the
//     reply's checksum string says;
//   - overload sheds with 429 + Retry-After while cache hits keep
//     being served, and a stalled client never blocks other requests.
//
// Every schedule is a pure function of its seed, so a failing seed
// replays exactly.
package chaostest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/robust"
	"memsim/internal/server"
)

// Snapshot-write fault modes.
const (
	snapOK         = iota // delegate to machine.WriteSnapshotFile
	snapDiskFull          // fail without touching the file
	snapShortWrite        // leave torn garbage at the path, then fail
)

// injector is the fault-injection seam wired into server.Hooks.
type injector struct {
	panicArm atomic.Bool  // one-shot: next run panics in the worker
	snapMode atomic.Int32 // snapOK | snapDiskFull | snapShortWrite

	mu   sync.Mutex
	gate chan struct{} // non-nil: workers wedge at the run boundary
}

func (in *injector) beforeRun(key string) {
	in.mu.Lock()
	ch := in.gate
	in.mu.Unlock()
	if ch != nil {
		<-ch
	}
	if in.panicArm.CompareAndSwap(true, false) {
		panic("chaostest: injected worker panic on " + key)
	}
}

func (in *injector) snapshotWrite(path string, s *machine.Snapshot) error {
	switch in.snapMode.Load() {
	case snapDiskFull:
		return errors.New("chaostest: injected disk-full checkpoint failure")
	case snapShortWrite:
		// A torn checkpoint on disk: the resume path must reject it and
		// rerun from scratch rather than load garbage.
		os.WriteFile(path, []byte("MCSP\x00torn"), 0o644)
		return errors.New("chaostest: injected short write")
	}
	return machine.WriteSnapshotFile(path, s)
}

func (in *injector) gateClose() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.gate == nil {
		in.gate = make(chan struct{})
	}
}

func (in *injector) gateOpen() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.gate != nil {
		close(in.gate)
		in.gate = nil
	}
}

func (in *injector) clear() {
	in.panicArm.Store(false)
	in.snapMode.Store(snapOK)
	in.gateOpen()
}

// The world's fixed shape: small enough that overload is reachable,
// big enough that restarts land mid-flight.
const (
	chaosWorkers  = 2
	chaosQueueCap = 3
	ckptEvery     = 10_000 // cycles; quick runs span 16K-320K, so preemption resumes mid-run
)

// pool is the healthy spec population schedules draw submissions from.
var pool = []server.SubmitRequest{
	{Bench: "Gauss", Model: "SC1", CacheSize: 1024, LineSize: 8},
	{Bench: "Gauss", Model: "WO1", CacheSize: 2048, LineSize: 16},
	{Bench: "Relax", Model: "RC", CacheSize: 1024, LineSize: 8},
	{Bench: "Relax", Model: "WO2", CacheSize: 512, LineSize: 16},
	{Bench: "Psim", Model: "SC2", CacheSize: 1024, LineSize: 8},
	{Bench: "Qsort", Model: "WO1", CacheSize: 1024, LineSize: 32},
}

// warmReq is the spec every schedule completes first, so overload and
// slow-client probes have a guaranteed cache hit to assert against.
var warmReq = pool[2]

// overloadReq derives the idx-th distinct throwaway spec for overload
// bursts; the nonzero LoadDelay keeps them disjoint from pool specs.
func overloadReq(idx int) server.SubmitRequest {
	lines := []int{8, 16, 32}
	caches := []int{512, 1024, 2048}
	return server.SubmitRequest{Bench: "Gauss", Model: "SC1",
		CacheSize: caches[(idx/3)%3], LineSize: lines[idx%3], LoadDelay: 2 + idx/9}
}

// Ground truth: one package-wide direct Runner (memoizing, so each
// distinct spec simulates once across all seeds) provides the
// checksums every served result must match byte-for-byte.
var (
	gtOnce   sync.Once
	gtRunner *experiments.Runner
)

// checkServed holds one done reply to the ground truth. The served
// result is decoded and re-checksummed, so a stale or mismatched
// pre-encoded body cannot pass on the strength of its checksum string.
func checkServed(t *testing.T, what string, jr server.JobResponse, req server.SubmitRequest) {
	t.Helper()
	want := groundTruth(t, req)
	var res machine.Result
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Errorf("%s %s: undecodable result: %v", what, jr.ID, err)
	} else if got := res.Checksum(); got != want || jr.Checksum != want {
		t.Errorf("%s %s: served result checksums to %s under checksum %q, direct Runner gives %s",
			what, jr.ID, got, jr.Checksum, want)
	}
}

func groundTruth(t *testing.T, req server.SubmitRequest) string {
	t.Helper()
	gtOnce.Do(func() { gtRunner = experiments.NewRunner(experiments.Quick()) })
	spec, err := req.Spec()
	if err != nil {
		t.Fatalf("ground truth spec: %v", err)
	}
	res, err := gtRunner.Run(spec)
	if err != nil {
		t.Fatalf("ground truth run: %v", err)
	}
	return res.Checksum()
}

// world is one schedule's server-under-test plus its accounting.
type world struct {
	t   *testing.T
	dir string
	inj *injector
	srv *server.Server
	ts  *httptest.Server

	accepted    map[string]server.SubmitRequest // job id -> spec, every 200/202 ack
	order       []string
	overloadIdx int
}

func newWorld(t *testing.T) *world {
	w := &world{
		t:        t,
		dir:      t.TempDir(),
		inj:      &injector{},
		accepted: make(map[string]server.SubmitRequest),
	}
	w.start(chaosQueueCap)
	return w
}

// start brings up a server incarnation over the world's state dir.
func (w *world) start(queueCap int) {
	s, err := server.New(server.Config{
		Params:     experiments.Quick(),
		StateDir:   w.dir,
		Workers:    chaosWorkers,
		QueueCap:   queueCap,
		RetryAfter: time.Second,
		CkptEvery:  ckptEvery,
		Hooks: server.Hooks{
			BeforeRun:     w.inj.beforeRun,
			SnapshotWrite: w.inj.snapshotWrite,
		},
	})
	if err != nil {
		w.t.Fatalf("starting server: %v", err)
	}
	w.srv = s
	w.ts = httptest.NewServer(s.Handler())
}

// kill models kill -9: the journal is abandoned mid-stream, nothing is
// flushed, and a fresh incarnation must recover from disk alone.
func (w *world) kill() {
	w.inj.gateOpen()
	w.ts.Close()
	w.srv.Kill()
	w.start(chaosQueueCap)
}

// drainRestart is the graceful path: checkpoint, journal, hand over.
func (w *world) drainRestart(queueCap int) {
	w.inj.gateOpen()
	w.ts.Close()
	w.srv.Drain()
	w.start(queueCap)
}

func (w *world) shutdown() {
	w.inj.clear()
	w.ts.Close()
	w.srv.Drain()
}

// submit posts one spec and records any acknowledgement: once the
// server says 200 or 202, losing that job is a contract violation.
func (w *world) submit(req server.SubmitRequest) (server.JobResponse, int, http.Header) {
	w.t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.Post(w.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		w.t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var jr server.JobResponse
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(body, &jr); err != nil {
			w.t.Fatalf("decoding %s: %v", body, err)
		}
		if _, ok := w.accepted[jr.ID]; !ok {
			w.accepted[jr.ID] = req
			w.order = append(w.order, jr.ID)
		}
		if jr.Status == string(experiments.StatusDone) {
			checkServed(w.t, "submit reply", jr, req)
		}
	}
	return jr, resp.StatusCode, resp.Header
}

// waitDone long-polls a job to a terminal state.
func (w *world) waitDone(id string, timeout time.Duration) server.JobResponse {
	w.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(w.ts.URL + "/api/v1/jobs/" + id + "?wait=2s")
		if err != nil {
			w.t.Fatalf("GET job %s: %v", id, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			w.t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, body)
		}
		var jr server.JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			w.t.Fatal(err)
		}
		if jr.Status == string(experiments.StatusDone) || jr.Status == string(experiments.StatusFailed) {
			return jr
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("job %s still %s after %v", id, jr.Status, timeout)
		}
	}
}

// Schedule operations.

func (w *world) opSubmit(x *uint64) {
	req := pool[robust.SplitMix64(x)%uint64(len(pool))]
	_, code, _ := w.submit(req)
	switch code {
	case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
	default:
		w.t.Fatalf("submit %s/%s: unexpected status %d", req.Bench, req.Model, code)
	}
}

func (w *world) opPreempt(x *uint64) {
	if len(w.order) == 0 {
		return
	}
	id := w.order[robust.SplitMix64(x)%uint64(len(w.order))]
	resp, err := http.Post(w.ts.URL+"/api/v1/jobs/"+id+"/preempt", "application/json", nil)
	if err != nil {
		w.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusConflict {
		w.t.Fatalf("preempt %s: unexpected status %d", id, resp.StatusCode)
	}
}

func (w *world) opPanic(x *uint64) {
	w.inj.panicArm.Store(true)
	w.opSubmit(x) // give the armed panic a likely victim
}

func (w *world) opSnapFault(x *uint64) {
	w.inj.snapMode.Store(int32(robust.SplitMix64(x) % 3))
}

// opOverload wedges the workers and floods distinct specs until the
// bounded queue sheds, then asserts the degradation contract: 429
// carries Retry-After, and the cached warm spec still serves 200.
func (w *world) opOverload() {
	w.inj.gateClose()
	defer w.inj.gateOpen()
	// With the gate closed nothing completes, so at most
	// queueCap+workers submissions are absorbed before a guaranteed
	// shed.
	bound := chaosQueueCap + chaosWorkers + 1
	shed := false
	for i := 0; i < bound && !shed; i++ {
		_, code, hdr := w.submit(overloadReq(w.overloadIdx))
		w.overloadIdx++
		switch code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusTooManyRequests:
			shed = true
			if hdr.Get("Retry-After") == "" {
				w.t.Error("shed response missing Retry-After")
			}
		default:
			w.t.Fatalf("overload submit: unexpected status %d", code)
		}
	}
	if !shed {
		w.t.Fatalf("no 429 within %d gated submissions", bound)
	}
	if jr, code, _ := w.submit(warmReq); code != http.StatusOK || !jr.Cached {
		w.t.Errorf("cache hit during overload: status %d cached=%v, want 200 cached", code, jr.Cached)
	}
}

// opSlowClient parks a half-written request on a raw connection and
// asserts the server keeps answering everyone else meanwhile.
func (w *world) opSlowClient() {
	conn, err := net.Dial("tcp", w.ts.Listener.Addr().String())
	if err != nil {
		w.t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /api/v1/jobs HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"bench\":")
	if jr, code, _ := w.submit(warmReq); code != http.StatusOK || !jr.Cached {
		w.t.Errorf("request behind stalled client: status %d cached=%v, want 200 cached", code, jr.Cached)
	}
}

// recoverAndVerify is every schedule's epilogue: clear all faults,
// hand over gracefully, then prove the contract held.
func (w *world) recoverAndVerify() {
	t := w.t
	w.inj.clear()
	w.drainRestart(64)

	// Zero lost jobs: every acknowledged submission must complete, and
	// resubmitting it must land on the same content address.
	for _, id := range w.order {
		req := w.accepted[id]
		for attempt := 0; ; attempt++ {
			jr, code, _ := w.submit(req)
			if code == http.StatusTooManyRequests {
				if attempt > 200 {
					t.Fatalf("job %s: still shed after %d recovery attempts", id, attempt)
				}
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Fatalf("recovery submit for %s: status %d", id, code)
			}
			if jr.ID != id {
				t.Errorf("content address drifted: %s/%s resubmitted as %s, was %s",
					req.Bench, req.Model, jr.ID, id)
			}
			break
		}
	}
	for _, id := range w.order {
		final := w.waitDone(id, 2*time.Minute)
		if final.Status != string(experiments.StatusDone) {
			t.Errorf("job %s ended %s after recovery (%s)", id, final.Status, final.Error)
			continue
		}
		checkServed(t, "final reply", final, w.accepted[id])
	}

	// Zero duplicated jobs: across every incarnation the journal holds
	// at most one done record per key, and each one's checksum matches
	// the direct Runner.
	entries, err := experiments.ReplayJournal(filepath.Join(w.dir, "journal.jsonl"))
	if err != nil {
		t.Fatalf("replaying journal: %v", err)
	}
	doneCount := make(map[string]int)
	for _, e := range entries {
		if e.Status != experiments.StatusDone {
			continue
		}
		doneCount[e.Key]++
		spec := e.Spec
		res, rerr := gtRunner.Run(spec)
		if rerr != nil {
			t.Errorf("journal done entry %s: direct run failed: %v", e.Key, rerr)
		} else if res.Checksum() != e.Checksum {
			t.Errorf("journal done entry %s checksum %s != direct Runner %s", e.Key, e.Checksum, res.Checksum())
		}
	}
	for key, n := range doneCount {
		if n > 1 {
			t.Errorf("job %s completed %d times — double completion", key, n)
		}
	}
}

// RunSeed executes one full chaos schedule: warm the cache, fire a
// deterministic op sequence, then recover and verify the contract.
func RunSeed(t *testing.T, seed uint64) {
	w := newWorld(t)
	defer w.shutdown()

	jr, code, _ := w.submit(warmReq)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("warm submit: status %d", code)
	}
	w.waitDone(jr.ID, time.Minute)

	x := seed
	const ops = 14
	for op := 0; op < ops; op++ {
		switch pick := robust.SplitMix64(&x) % 12; {
		case pick < 4:
			w.opSubmit(&x)
		case pick < 6:
			w.opPreempt(&x)
		case pick == 6:
			w.opPanic(&x)
		case pick == 7:
			w.opSnapFault(&x)
		case pick == 8:
			w.kill()
		case pick == 9:
			w.drainRestart(chaosQueueCap)
		case pick == 10:
			w.opOverload()
		default:
			w.opSlowClient()
		}
	}
	w.recoverAndVerify()
}
