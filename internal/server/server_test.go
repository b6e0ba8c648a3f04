package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/machine"
)

// gate lets tests hold worker goroutines at the run boundary to make
// queue states (running-but-not-done, full backlog) deterministic.
type gate struct {
	mu sync.Mutex
	ch chan struct{} // nil = open; non-nil = closed until released
}

func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
}

func (g *gate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
}

func (g *gate) wait() {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// testClient wraps an httptest server over a Server's handler.
type testClient struct {
	t  *testing.T
	ts *httptest.Server
}

func newTestClient(t *testing.T, s *Server) *testClient {
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, ts: ts}
}

func (c *testClient) postJSON(path string, body interface{}) (*http.Response, []byte) {
	c.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func (c *testClient) get(path string) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.ts.URL + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func (c *testClient) submit(req SubmitRequest) (JobResponse, int) {
	c.t.Helper()
	resp, body := c.postJSON("/api/v1/jobs", req)
	var jr JobResponse
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(body, &jr); err != nil {
			c.t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return jr, resp.StatusCode
}

// waitDone long-polls a job until it reaches a terminal state.
func (c *testClient) waitDone(id string, timeout time.Duration) JobResponse {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, body := c.get("/api/v1/jobs/" + id + "?wait=2s")
		if resp.StatusCode != http.StatusOK {
			c.t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			c.t.Fatal(err)
		}
		if jr.Status == string(experiments.StatusDone) || jr.Status == string(experiments.StatusFailed) {
			return jr
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %s after %v", id, jr.Status, timeout)
		}
	}
}

var gaussReq = SubmitRequest{Bench: "Gauss", Model: "SC1", CacheSize: 1 << 10, LineSize: 8}

// TestServerSingleFlightContention submits the same spec from many
// concurrent clients and requires exactly one fresh simulation (one
// Runner "ran" log line, one BeforeRun firing) with every caller
// receiving a checksum-identical Result.
func TestServerSingleFlightContention(t *testing.T) {
	var log syncBuffer
	var hookMu sync.Mutex
	hookRuns := 0
	s, err := New(Config{
		Params:  experiments.Quick(),
		Workers: 4,
		Log:     &log,
		Hooks: Hooks{BeforeRun: func(key string) {
			hookMu.Lock()
			hookRuns++
			hookMu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	c := newTestClient(t, s)

	const clients = 16
	var wg sync.WaitGroup
	checksums := make([]string, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			jr, code := c.submit(gaussReq)
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			final := c.waitDone(jr.ID, 30*time.Second)
			if final.Status != string(experiments.StatusDone) {
				t.Errorf("client %d: job ended %s (%s)", i, final.Status, final.Error)
				return
			}
			checksums[i] = final.Checksum
		}()
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if checksums[i] != checksums[0] {
			t.Errorf("client %d checksum %s != client 0 %s", i, checksums[i], checksums[0])
		}
	}
	if checksums[0] == "" {
		t.Fatal("no checksum returned")
	}
	if n := strings.Count(log.String(), "  ran "); n != 1 {
		t.Errorf("%d fresh simulations for %d identical submissions, want exactly 1:\n%s",
			n, clients, log.String())
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if hookRuns != 1 {
		t.Errorf("worker executed %d jobs for %d identical submissions, want 1", hookRuns, clients)
	}

	// A resubmission after completion is a pure cache hit.
	jr, code := c.submit(gaussReq)
	if code != http.StatusOK || !jr.Cached {
		t.Errorf("resubmission: status %d cached=%v, want 200 cached", code, jr.Cached)
	}
}

// TestServerShedsUnderOverload fills the one-worker, one-slot queue
// and requires excess submissions to shed with 429 + Retry-After
// while a previously completed spec keeps serving from cache.
func TestServerShedsUnderOverload(t *testing.T) {
	g := &gate{}
	s, err := New(Config{
		Params:     experiments.Quick(),
		Workers:    1,
		QueueCap:   1,
		RetryAfter: 3 * time.Second,
		Hooks:      Hooks{BeforeRun: func(string) { g.wait() }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		g.open()
		s.Drain()
	}()
	c := newTestClient(t, s)

	// Warm the cache with one completed run while the gate is open.
	warm, code := c.submit(gaussReq)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("warm submit: %d", code)
	}
	c.waitDone(warm.ID, 30*time.Second)

	// Close the gate: the next job wedges in the worker, then one more
	// fills the queue.
	g.close()
	variant := func(delay int) SubmitRequest {
		r := gaussReq
		r.LoadDelay = delay
		return r
	}
	if _, code := c.submit(variant(3)); code != http.StatusAccepted {
		t.Fatalf("first overload submit: %d, want 202", code)
	}
	waitForRunning := time.Now()
	for s.queue.Len() != 0 {
		if time.Since(waitForRunning) > 10*time.Second {
			t.Fatal("worker never picked up the wedged job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, code := c.submit(variant(5)); code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d, want 202", code)
	}

	// Now the server is saturated: new work is shed...
	resp, body := c.postJSON("/api/v1/jobs", variant(6))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	// ...but cache hits keep being served.
	jr, code := c.submit(gaussReq)
	if code != http.StatusOK || !jr.Cached || jr.Result == nil {
		t.Errorf("cache hit under overload: status %d cached=%v", code, jr.Cached)
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Error("stats recorded no shed submissions")
	}
	// The deferred gate-open + Drain reap the wedged and queued jobs.
}

// TestJournalFailureDoesNotWedge: a journal append that fails on a
// live server (a full disk; here a journal closed underneath it) is
// logged and lost, and the server keeps answering. Admission journals
// with s.mu held, so the failure path must not take the lock again:
// the submission's reply and a following stats request — which needs
// the same lock — must both arrive within the deadline.
func TestJournalFailureDoesNotWedge(t *testing.T) {
	var log syncBuffer
	s, err := New(Config{Params: experiments.Quick(), StateDir: t.TempDir(), Workers: 1, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	s.journal.Close()

	body, err := json.Marshal(gaussReq)
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan [2]int, 1)
	go func() {
		// Straight into the handlers: a wedged one must cost the test its
		// deadline, not an httptest.Server that never finishes closing.
		submit, stats := httptest.NewRecorder(), httptest.NewRecorder()
		s.Handler().ServeHTTP(submit, httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body)))
		s.Handler().ServeHTTP(stats, httptest.NewRequest("GET", "/api/v1/stats", nil))
		codes <- [2]int{submit.Code, stats.Code}
	}()
	select {
	case got := <-codes:
		if want := [2]int{http.StatusAccepted, http.StatusOK}; got != want {
			t.Errorf("submit, stats answered %v, want %v", got, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a failed journal append wedged the server: no reply to a submission and a stats request in 20s")
	}
	s.Drain()
	if !strings.Contains(log.String(), "journal: ") {
		t.Errorf("the lost append was not logged:\n%s", log.String())
	}
}

func mustSpec(t *testing.T, r SubmitRequest) experiments.RunSpec {
	t.Helper()
	s, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerDrainAndResume drains a server with one wedged and one
// queued job, then restarts on the same state directory and requires
// both to complete with the same checksums a direct Runner produces.
func TestServerDrainAndResume(t *testing.T) {
	dir := t.TempDir()
	g := &gate{}
	s, err := New(Config{
		Params:   experiments.Quick(),
		StateDir: dir,
		Workers:  1,
		Hooks:    Hooks{BeforeRun: func(string) { g.wait() }},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, s)

	reqA := gaussReq
	reqB := SubmitRequest{Bench: "Relax", Model: "WO1", CacheSize: 1 << 10, LineSize: 8}
	g.close()
	ja, code := c.submit(reqA)
	if code != http.StatusAccepted {
		t.Fatalf("submit A: %d", code)
	}
	jb, code := c.submit(reqB)
	if code != http.StatusAccepted {
		t.Fatalf("submit B: %d", code)
	}

	// Drain while A is wedged in the worker and B is queued. The gate
	// opens after Drain begins so the worker can observe cancellation.
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	time.Sleep(50 * time.Millisecond)
	g.open()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}

	// Draining admission: new submissions are refused...
	if _, code := c.submit(SubmitRequest{Bench: "Psim", Model: "RC", CacheSize: 1 << 10, LineSize: 8}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}

	// Restart on the same state. Both jobs must be re-admitted and
	// complete; checksums must match a direct Runner run.
	s2, err := New(Config{Params: experiments.Quick(), StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if st := s2.Stats(); st.Resumed != 2 {
		t.Fatalf("resumed %d jobs, want 2", st.Resumed)
	}
	c2 := newTestClient(t, s2)
	finalA := c2.waitDone(ja.ID, 60*time.Second)
	finalB := c2.waitDone(jb.ID, 60*time.Second)

	direct := experiments.NewRunner(experiments.Quick())
	resA, err := direct.Run(mustSpec(t, reqA))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := direct.Run(mustSpec(t, reqB))
	if err != nil {
		t.Fatal(err)
	}
	if finalA.Checksum != resA.Checksum() {
		t.Errorf("job A checksum %s != direct %s", finalA.Checksum, resA.Checksum())
	}
	if finalB.Checksum != resB.Checksum() {
		t.Errorf("job B checksum %s != direct %s", finalB.Checksum, resB.Checksum())
	}
}

// TestServerPreemptRequeues preempts a running job and requires it to
// checkpoint, requeue and still finish with a correct result.
func TestServerPreemptRequeues(t *testing.T) {
	dir := t.TempDir()
	g := &gate{}
	s, err := New(Config{
		Params:   experiments.Quick(),
		StateDir: dir,
		Workers:  1,
		Hooks:    Hooks{BeforeRun: func(string) { g.wait() }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		g.open()
		s.Drain()
	}()
	c := newTestClient(t, s)

	g.close()
	jr, code := c.submit(gaussReq)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Wait for the worker to pick it up (status running).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := c.get("/api/v1/jobs/" + jr.ID)
		var cur JobResponse
		json.Unmarshal(body, &cur)
		resp.Body.Close()
		if cur.Status == string(experiments.StatusRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (now %s)", cur.Status)
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := c.postJSON("/api/v1/jobs/"+jr.ID+"/preempt", struct{}{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preempt: %d", resp.StatusCode)
	}
	g.open()
	final := c.waitDone(jr.ID, 60*time.Second)
	if final.Status != string(experiments.StatusDone) {
		t.Fatalf("preempted job ended %s (%s)", final.Status, final.Error)
	}
	if st := s.Stats(); st.Preempts == 0 {
		t.Error("stats recorded no preemption")
	}
	direct := experiments.NewRunner(experiments.Quick())
	res, err := direct.Run(mustSpec(t, gaussReq))
	if err != nil {
		t.Fatal(err)
	}
	if final.Checksum != res.Checksum() {
		t.Errorf("preempted job checksum %s != direct %s", final.Checksum, res.Checksum())
	}
}

// TestCacheRejectsCorruptEntries corrupts an on-disk entry and
// requires the cache to miss rather than serve it, first at the cache
// and then through HTTP: the job reruns and the mangled bytes never
// reach a client.
func TestCacheRejectsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	direct := experiments.NewRunner(experiments.Quick())
	spec := mustSpec(t, gaussReq)
	res, err := direct.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	canonical, sum := res.Encode()
	if err := cache.Put(newCacheEntry("deadbeef", "k", spec, res)); err != nil {
		t.Fatal(err)
	}

	// A fresh cache (cold memory) must load and verify from disk.
	cache2, _ := NewCache(dir)
	if _, ok := cache2.Get("deadbeef"); !ok {
		t.Fatal("verified entry did not load from disk")
	}

	// A file that spells the same entry differently still verifies, and
	// what is served is the canonical encoding, not the file's spelling.
	path := filepath.Join(dir, "deadbeef.json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf, "", "\t"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cache3, _ := NewCache(dir)
	if e, ok := cache3.Get("deadbeef"); !ok {
		t.Error("re-spelt entry did not verify")
	} else if !bytes.Equal(e.Result, canonical) || e.Checksum != sum {
		t.Errorf("re-spelt entry serves %.80s..., want the canonical encoding", e.Result)
	}

	// Corrupt the stored result: flip the cycle count.
	mangle := func(path string) {
		t.Helper()
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mangled := bytes.Replace(buf, []byte(fmt.Sprintf(`"Cycles":%d`, res.Cycles)),
			[]byte(fmt.Sprintf(`"Cycles":%d`, res.Cycles+1)), 1)
		if bytes.Equal(mangled, buf) {
			t.Fatalf("corruption did not apply; body: %.200s", buf)
		}
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	mangle(path)
	cache4, _ := NewCache(dir)
	if _, ok := cache4.Get("deadbeef"); ok {
		t.Fatal("corrupt entry served from disk")
	}

	// The same through HTTP: complete the job, drain, mangle its file.
	// The next incarnation must rerun it and serve the true result.
	state := t.TempDir()
	s, err := New(Config{Params: experiments.Quick(), StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, s)
	jr, _ := c.submit(gaussReq)
	c.waitDone(jr.ID, 30*time.Second)
	s.Drain()
	mangle(filepath.Join(state, "cache", jr.ID+".json"))

	var log syncBuffer
	s2, err := New(Config{Params: experiments.Quick(), StateDir: state, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	c2 := newTestClient(t, s2)
	_, body := c2.get("/api/v1/jobs/" + jr.ID + "?wait=30s")
	var final JobResponse
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if final.Status != string(experiments.StatusDone) || final.Checksum != sum || !bytes.Equal(final.Result, canonical) {
		t.Errorf("after corruption: status %s checksum %s, want done %s with the true result", final.Status, final.Checksum, sum)
	}
	if bytes.Contains(body, []byte(fmt.Sprintf(`"Cycles":%d`, res.Cycles+1))) {
		t.Error("mangled bytes were served")
	}
	if n := strings.Count(log.String(), "  ran "); n != 1 {
		t.Errorf("%d fresh simulations after the corruption, want the one rerun:\n%s", n, log.String())
	}
}

// TestParentFormatStateRunsCold: each directory under testdata is the
// state a memsimd left behind under an older simulator — one job,
// journaled queued, running, done, with its cache entry. Everything in
// it is well-formed, and its result is another machine's: the new
// incarnation must find that the entry does not reproduce its
// checksum, drop it, run the job cold and serve what it simulated.
//
//   - state-events-checksum predates Events leaving the checksum and
//     processors getting their slot in the cycle.
//   - state-rev0 has today's format, but its checksum was taken before
//     checksums covered machine.TimingRevision: it was simulated under a
//     network whose ports freed with an event of their own.
func TestParentFormatStateRunsCold(t *testing.T) {
	for _, parent := range []string{"testdata/state-events-checksum", "testdata/state-rev0"} {
		files, err := filepath.Glob(filepath.Join(parent, "cache", "*.json"))
		if err != nil || len(files) != 1 {
			t.Fatalf("cache entries in %s: %v, %v", parent, files, err)
		}
		state := t.TempDir()
		if err := os.Mkdir(filepath.Join(state, "cache"), 0o755); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, name := range []string{"journal.jsonl", filepath.Join("cache", filepath.Base(files[0]))} {
			if buf, err = os.ReadFile(filepath.Join(parent, name)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(state, name), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var stored CacheEntry
		var old machine.Result
		if json.Unmarshal(buf, &stored) != nil || json.Unmarshal(stored.Result, &old) != nil || old.Cycles == 0 {
			t.Fatalf("%s does not decode to an entry with its result", files[0])
		}
		want, err := experiments.NewRunner(experiments.Quick()).Run(stored.Spec)
		if err != nil {
			t.Fatal(err)
		}

		var log syncBuffer
		s, err := New(Config{Params: experiments.Quick(), StateDir: state, Log: &log})
		if err != nil {
			t.Fatal(err)
		}
		if s.cache.Len() != 0 || s.resumed.Load() != 1 {
			t.Errorf("%s: %d entries recalled and %d jobs resumed, want 0 and 1", parent, s.cache.Len(), s.resumed.Load())
		}
		final := newTestClient(t, s).waitDone(stored.ID, 30*time.Second)
		canonical, sum := want.Encode()
		if final.Status != string(experiments.StatusDone) || final.Checksum != sum || !bytes.Equal(final.Result, canonical) || sum == stored.Checksum {
			t.Errorf("%s: served status %s checksum %s; simulated here %s, stored by the parent %s", parent, final.Status, final.Checksum, sum, stored.Checksum)
		}
		if !strings.Contains(log.String(), "lost its cache entry; re-running") || strings.Count(log.String(), "  ran ") != 1 {
			t.Errorf("%s: the log does not show the entry dropped and one cold run:\n%s", parent, log.String())
		}
		s.Drain()
	}
}

// TestDoneRepliesShareOneEncoding visits every site that serves a done
// result and requires each reply to name the job correctly and to carry
// the one canonical encoding of the Result, which reproduces the
// checksum a direct Runner gives.
func TestDoneRepliesShareOneEncoding(t *testing.T) {
	res, err := experiments.NewRunner(experiments.Quick()).Run(mustSpec(t, gaussReq))
	if err != nil {
		t.Fatal(err)
	}
	canonical, sum := res.Encode()
	var id, key string
	checkBody := func(site string, body []byte, cached bool) {
		t.Helper()
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("%s: decoding %.200s: %v", site, body, err)
		}
		want := JobResponse{ID: id, Key: key, Status: string(experiments.StatusDone), Cached: cached, Checksum: sum}
		got := jr
		got.Result = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, want %+v", site, got, want)
		}
		if !bytes.Equal(jr.Result, canonical) {
			t.Errorf("%s: result is not the canonical encoding: %.120s", site, jr.Result)
		}
		var served machine.Result
		if err := json.Unmarshal(jr.Result, &served); err != nil || served.Checksum() != sum {
			t.Errorf("%s: served result does not reproduce checksum %s (%v)", site, sum, err)
		}
	}
	check := func(site string, resp *http.Response, body []byte, cached bool) {
		t.Helper()
		checkBody(site, body, cached)
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
			t.Errorf("%s: HTTP %d, Content-Type %q", site, resp.StatusCode, ct)
		}
		if cached && resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d on a %d-byte pre-encoded body", site, resp.ContentLength, len(body))
		}
	}

	state := t.TempDir()
	s, err := New(Config{Params: experiments.Quick(), StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, s)
	first, _ := c.submit(gaussReq)
	id, key = first.ID, first.Key
	c.waitDone(id, 30*time.Second)
	resp, body := c.postJSON("/api/v1/jobs", gaussReq)
	check("POST hit from memory", resp, body, true)
	resp, body = c.get("/api/v1/jobs/" + id)
	check("GET of a live done job", resp, body, false)
	resp, body = c.postJSON("/api/v1/sweep", SweepRequest{Specs: []SubmitRequest{gaussReq}})
	var sweep struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	var item struct {
		Code int `json:"code"`
	}
	if err := json.Unmarshal(body, &sweep); err != nil || resp.StatusCode != http.StatusOK || len(sweep.Jobs) != 1 {
		t.Fatalf("sweep: HTTP %d %.200s (%v)", resp.StatusCode, body, err)
	}
	if err := json.Unmarshal(sweep.Jobs[0], &item); err != nil || item.Code != http.StatusOK {
		t.Errorf("sweep item: code %d (%v), want 200", item.Code, err)
	}
	checkBody("sweep item", sweep.Jobs[0], true)
	s.Drain()

	// A second incarnation recalls the job from journal and cache file.
	s2, err := New(Config{Params: experiments.Quick(), StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, s2)
	resp, body = c2.postJSON("/api/v1/jobs", gaussReq)
	check("POST hit loaded from disk", resp, body, true)
	resp, body = c2.get("/api/v1/jobs/" + id)
	check("GET of a done job replayed from the journal", resp, body, false)
	s2.Drain()

	// A third, with the journal gone, knows the job only by its cache file.
	if err := os.Remove(filepath.Join(state, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	s3, err := New(Config{Params: experiments.Quick(), StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Drain()
	resp, body = newTestClient(t, s3).get("/api/v1/jobs/" + id)
	check("GET of a recalled job", resp, body, true)
}

// TestRequestStrictness: a body the request type does not describe
// exactly is refused with a 400 that says why, never run as something
// else.
func TestRequestStrictness(t *testing.T) {
	s, err := New(Config{Params: experiments.Quick()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	c := newTestClient(t, s)
	const good = `{"bench":"Gauss","model":"SC1","cacheSize":1024,"lineSize":8}`
	for _, row := range []struct {
		name, path, body string
		code             int
		errHas           string
	}{
		{"well-formed", "/api/v1/jobs", good, http.StatusAccepted, ""},
		{"trailing whitespace", "/api/v1/jobs", good + "\n ", http.StatusAccepted, ""},
		{"unknown field", "/api/v1/jobs", `{"bench":"Gauss","model":"SC1","cacheSize":1024,"lineSize":8,"proc":32}`, http.StatusBadRequest, `"proc"`},
		{"unknown field in a sweep spec", "/api/v1/sweep", `{"specs":[{"bench":"Gauss","modle":"SC1"}]}`, http.StatusBadRequest, `"modle"`},
		{"trailing garbage", "/api/v1/jobs", good + " x", http.StatusBadRequest, "trailing data"},
		{"second value", "/api/v1/jobs", good + good, http.StatusBadRequest, "trailing data"},
		{"stray brace", "/api/v1/sweep", `{"specs":[]}}`, http.StatusBadRequest, "trailing data"},
		{"oversized body", "/api/v1/jobs", `{"bench":"` + strings.Repeat("G", 1<<20) + `"}`, http.StatusBadRequest, "too large"},
	} {
		resp, err := http.Post(c.ts.URL+row.path, "application/json", strings.NewReader(row.body))
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		var reply errorResponse
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != row.code || !strings.Contains(reply.Error, row.errHas) {
			t.Errorf("%s: HTTP %d error %q (%v), want %d mentioning %q", row.name, resp.StatusCode, reply.Error, err, row.code, row.errHas)
		}
	}
}

// TestHitPathAllocBudget: a pass of service-mix is 12 000 cache hits,
// so what one hit allocates between request and reply is the workload's
// running cost. A hit goes through Handler() into a recorder, and the
// same request answered with the same bytes by a handler that does
// nothing else is subtracted, which leaves the service's own share (the
// request decoder, the spec key, the content address) and takes out
// httptest's buffers. Measured: 1 313 B with go1.24 on amd64; the
// ceiling is about twice that. The commit before this one, which
// reflect-encoded and indented the Result on every hit, ran to
// 35 696 B by the same measure.
func TestHitPathAllocBudget(t *testing.T) {
	s, err := New(Config{Params: experiments.Quick()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	body, err := json.Marshal(gaussReq)
	if err != nil {
		t.Fatal(err)
	}
	hit := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	var first JobResponse
	if err := json.Unmarshal(hit(s.Handler()).Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.jobs[first.ID].done:
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed")
	}
	warm := hit(s.Handler())
	var reply JobResponse
	if err := json.Unmarshal(warm.Body.Bytes(), &reply); err != nil || warm.Code != http.StatusOK || !reply.Cached {
		t.Fatalf("warm request is not a cache hit: %d %.200s (%v)", warm.Code, warm.Body, err)
	}
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(warm.Body.Bytes())
	})

	allocated := func(h http.Handler) uint64 {
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hit(h)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	perHit, harness := allocated(s.Handler()), allocated(echo)
	t.Logf("cache hit through Handler(): %d B, of which the harness %d B", perHit, harness)
	const ceiling = 2_600
	if perHit > harness+ceiling {
		t.Errorf("a cache hit allocates %d B beyond the harness's %d B, ceiling %d", perHit-harness, harness, ceiling)
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
