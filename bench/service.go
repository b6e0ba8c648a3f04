package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/server"
)

// serviceClients is the number of closed-loop clients, one connection
// each: no more load-generating threads than the sandbox has cores.
const serviceClients = 2

// servicePasser drives memsimd in process: every spec submitted cold
// and polled to completion, then cache hits, a drain, a restart on the
// same state directory and more hits.
type servicePasser struct {
	params    experiments.Params
	specs     []experiments.RunSpec
	golden    map[string]string
	hits      int // per client, before the restart
	hitsAfter int // per client, after it
	dir       string
	passes    int
}

func prepareServiceSized(o options, specs, hits, hitsAfter int) (*servicePasser, error) {
	p := experiments.Quick()
	p.Seed = o.seed
	golden, err := loadGolden("quick.json")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "state-")
	if err != nil {
		return nil, err
	}
	// The server runs every job under one seed, so Qsort's input cannot
	// be held apart (see inputSeed) and Qsort stays out of this workload.
	grid := quickGrid(p, experiments.BGauss, experiments.BRelax, experiments.BPsim)
	return &servicePasser{params: p, specs: grid[:specs], golden: golden,
		hits: hits, hitsAfter: hitsAfter, dir: dir}, nil
}

func prepareService(o options) (passer, error) {
	if o.smoke {
		return prepareServiceSized(o, 8, 200, 50)
	}
	return prepareServiceSized(o, 30, 5000, 1000)
}

func (s *servicePasser) close() { os.RemoveAll(s.dir) }

// reply is the part of server.JobResponse a client checks; Result is
// decoded only where the caller asks for it.
type reply struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Cached   bool            `json:"cached"`
	Checksum string          `json:"checksum"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// client is one closed-loop caller holding one connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) do(method, path string, body []byte) (int, reply, error) {
	var r reply
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, r, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, r, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return resp.StatusCode, r, fmt.Errorf("decoding %s %s reply: %w", method, path, err)
	}
	return resp.StatusCode, r, nil
}

func submitBody(s experiments.RunSpec) []byte {
	b, _ := json.Marshal(server.SubmitRequest{ // marshalling a struct of strings and ints cannot fail
		Bench: string(s.Bench), Model: s.Model.String(), CacheSize: s.CacheSize, LineSize: s.LineSize,
	})
	return b
}

// clientResult is what one client saw during a phase.
type clientResult struct {
	passResult
	latencies []float64 // seconds per operation
}

// eachClient runs fn once per client, concurrently, and merges what
// they saw into out.
func eachClient(out *passResult, fn func(i int, r *clientResult)) []float64 {
	results := make([]clientResult, serviceClients)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, &results[i])
		}()
	}
	wg.Wait()
	var lat []float64
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstFailure == "" {
			out.firstFailure = r.firstFailure
		}
		lat = append(lat, r.latencies...)
	}
	return lat
}

func (s *servicePasser) pass(tr *tracer) (passResult, error) {
	var out passResult
	root := tr.begin(-1, "bench.pass")
	defer tr.end(root)

	s.passes++
	state := filepath.Join(s.dir, fmt.Sprintf("pass-%d", s.passes))
	defer os.RemoveAll(state)
	cfg := server.Config{Params: s.params, StateDir: state, Workers: 2, CkptEvery: 200_000}

	id := tr.begin(root, "server.lifecycle")
	srv, err := server.New(cfg)
	tr.end(id)
	if err != nil {
		return out, err
	}
	ts := httptest.NewServer(srv.Handler())
	clients := make([]*client, serviceClients)
	for i := range clients {
		clients[i] = newClient(ts.URL)
	}

	// Cold phase: the clients split the specs; each submits one, long-
	// polls it to done, then submits its next.
	cold := make([]string, len(s.specs)) // checksum each spec produced cold
	coldRes := make([]machine.Result, len(s.specs))
	phase := tr.begin(root, "server.cold")
	t0 := time.Now()
	coldLat := eachClient(&out, func(ci int, r *clientResult) {
		lane := tr.beginLane(phase, "server.cold.client", ci+1)
		defer tr.end(lane)
		for i := ci; i < len(s.specs); i += serviceClients {
			key := specKey(s.specs[i])
			r.attempted++
			start := time.Now()
			id := tr.begin(lane, "server.cold.job")
			code, rep, err := clients[ci].do("POST", "/api/v1/jobs", submitBody(s.specs[i]))
			for err == nil && code/100 == 2 && rep.Status != "done" && rep.Status != "failed" {
				code, rep, err = clients[ci].do("GET", "/api/v1/jobs/"+rep.ID+"?wait=30s", nil)
			}
			tr.end(id)
			r.latencies = append(r.latencies, time.Since(start).Seconds())
			var res machine.Result
			switch {
			case err != nil:
				r.fail("cold %s: %v", key, err)
			case code/100 != 2 || rep.Status != "done":
				r.fail("cold %s: HTTP %d, status %q: %s", key, code, rep.Status, rep.Error)
			case json.Unmarshal(rep.Result, &res) != nil || res.Checksum() != rep.Checksum:
				r.fail("cold %s: served result does not reproduce its checksum %s", key, rep.Checksum)
			case s.params.Seed == goldenSeed && s.golden[key] != rep.Checksum:
				r.fail("cold %s: checksum %s differs from the golden %s", key, rep.Checksum, s.golden[key])
			default:
				cold[i], coldRes[i] = rep.Checksum, res
			}
		}
	})
	coldPhase := time.Since(t0).Seconds()
	tr.end(phase)

	// hit sends n submissions of already-done specs from each client.
	hit := func(n int) []float64 {
		phase := tr.begin(root, "server.hit")
		defer tr.end(phase)
		return eachClient(&out, func(ci int, r *clientResult) {
			lane := tr.beginLane(phase, "server.hit.client", ci+1)
			defer tr.end(lane)
			for k := 0; k < n; k++ {
				i := (ci + k) % len(s.specs)
				r.attempted++
				start := time.Now()
				id := tr.begin(lane, "server.hit.request")
				code, rep, err := clients[ci].do("POST", "/api/v1/jobs", submitBody(s.specs[i]))
				tr.end(id)
				r.latencies = append(r.latencies, time.Since(start).Seconds())
				switch {
				case err != nil:
					r.fail("hit %s: %v", specKey(s.specs[i]), err)
				case code != http.StatusOK || !rep.Cached:
					r.fail("hit %s: HTTP %d, cached=%v: %s", specKey(s.specs[i]), code, rep.Cached, rep.Error)
				case cold[i] == "" || rep.Checksum != cold[i]:
					r.fail("hit %s: checksum %s differs from the cold result %q", specKey(s.specs[i]), rep.Checksum, cold[i])
				}
			}
		})
	}
	t0 = time.Now()
	hitLat := hit(s.hits)
	hitPhase := time.Since(t0).Seconds()

	// Drain, then a second incarnation on the same state directory:
	// journal replay and re-verification of the cached results.
	id = tr.begin(root, "server.lifecycle")
	t0 = time.Now()
	srv.Drain()
	drain := time.Since(t0).Seconds()
	shed := srv.Stats().Shed
	ts.Close()
	t0 = time.Now()
	srv, err = server.New(cfg)
	recovery := time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return out, err
	}
	ts = httptest.NewServer(srv.Handler())
	for i := range clients {
		clients[i].hc.CloseIdleConnections()
		clients[i] = newClient(ts.URL)
	}
	hit(s.hitsAfter)
	id = tr.begin(root, "server.lifecycle")
	srv.Drain()
	tr.end(id)
	shed += srv.Stats().Shed
	ts.Close()
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	var journalKB float64
	if st, err := os.Stat(filepath.Join(state, "journal.jsonl")); err == nil {
		journalKB = float64(st.Size()) / 1024
	}

	digest := newDigest()
	var ran []experiments.RunSpec
	var results []machine.Result
	for i, sum := range cold {
		if sum != "" {
			digest.add(specKey(s.specs[i]), sum)
			out.counts.add(coldRes[i])
			ran, results = append(ran, s.specs[i]), append(results, coldRes[i])
		}
	}
	out.digest = digest.sum()
	out.extra = map[string]float64{
		"cold_phase_s": coldPhase,
		"cold_p50_ms":  1e3 * median(coldLat),
		"hit_p50_us":   1e6 * median(hitLat),
		"hit_p99_us":   1e6 * percentile(hitLat, 99),
		"hit_rps":      float64(len(hitLat)) / hitPhase,
		"recover_ms":   1e3 * recovery,
		"drain_ms":     1e3 * drain,
		"journal_kb":   journalKB,
		"shed":         float64(shed),
		"rc_gain_pct":  rcGainPct(ran, results),
	}

	if tr != nil {
		// The same specs on a bare Runner-equivalent, two goroutines:
		// what the cold phase would cost with no service around it.
		phase := tr.begin(root, "bench.baseline")
		t0 = time.Now()
		eachClient(&out, func(ci int, r *clientResult) {
			lane := tr.beginLane(phase, "bench.baseline.worker", ci+1)
			defer tr.end(lane)
			for i := ci; i < len(s.specs); i += serviceClients {
				r.attempted++
				if _, sum, err := replay(tr, lane, s.params, s.specs[i]); err != nil || sum != cold[i] {
					r.fail("baseline %s: replay gave %q (%v), the service gave %q", specKey(s.specs[i]), sum, err, cold[i])
				}
			}
		})
		tr.end(phase)
		out.extra["cold_overhead_frac"] = coldPhase/time.Since(t0).Seconds() - 1
	}
	return out, nil
}
