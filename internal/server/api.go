package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"memsim/internal/consistency"
	"memsim/internal/experiments"
	"memsim/internal/workloads"
)

// The HTTP/JSON wire types. Requests name benchmarks and models as
// strings ("Gauss", "SC1"); the server converts them to an
// experiments.RunSpec and everything downstream is content-addressed
// by the normalized spec, so two requests spelling the same
// configuration differently collapse to one job.

// SubmitRequest asks for one simulation run.
type SubmitRequest struct {
	Bench      string `json:"bench"`
	Model      string `json:"model"`
	CacheSize  int    `json:"cacheSize"`
	LineSize   int    `json:"lineSize"`
	LoadDelay  int    `json:"loadDelay,omitempty"`
	Procs      int    `json:"procs,omitempty"`
	MSHRs      int    `json:"mshrs,omitempty"`
	RelaxSched string `json:"relaxSched,omitempty"`
}

// Spec converts the wire request into a RunSpec, validating the names.
func (q SubmitRequest) Spec() (experiments.RunSpec, error) {
	var s experiments.RunSpec
	bench, err := parseBench(q.Bench)
	if err != nil {
		return s, err
	}
	model, err := consistency.ParseModel(q.Model)
	if err != nil {
		return s, err
	}
	sched, err := parseRelaxSched(q.RelaxSched)
	if err != nil {
		return s, err
	}
	if q.CacheSize <= 0 {
		return s, fmt.Errorf("server: cacheSize must be positive, got %d", q.CacheSize)
	}
	if q.LineSize <= 0 {
		return s, fmt.Errorf("server: lineSize must be positive, got %d", q.LineSize)
	}
	s = experiments.RunSpec{
		Bench:      bench,
		Model:      model,
		CacheSize:  q.CacheSize,
		LineSize:   q.LineSize,
		LoadDelay:  q.LoadDelay,
		Procs:      q.Procs,
		MSHRs:      q.MSHRs,
		RelaxSched: sched,
	}
	return s, nil
}

func parseBench(name string) (experiments.Bench, error) {
	for _, b := range experiments.Benches {
		if strings.EqualFold(name, string(b)) {
			return b, nil
		}
	}
	return "", fmt.Errorf("server: unknown benchmark %q (want Gauss, Qsort, Relax or Psim)", name)
}

func parseRelaxSched(name string) (workloads.RelaxSchedule, error) {
	switch {
	case name == "" || strings.EqualFold(name, "default"):
		return workloads.RelaxDefault, nil
	case strings.EqualFold(name, "miss-first"):
		return workloads.RelaxMissFirst, nil
	case strings.EqualFold(name, "miss-last"):
		return workloads.RelaxMissLast, nil
	}
	return 0, fmt.Errorf("server: unknown relax schedule %q (want default, miss-first or miss-last)", name)
}

// JobResponse describes a job's current state. Result is present only
// when Status is "done": the run's machine.Result in the canonical
// encoding Checksum is the SHA-256 of.
type JobResponse struct {
	ID       string          `json:"id"`
	Key      string          `json:"key"`
	Status   string          `json:"status"`
	Cached   bool            `json:"cached,omitempty"`
	Checksum string          `json:"checksum,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`

	body []byte // the reply's finished encoding, when a cache entry holds it
}

// SweepRequest submits a batch of runs in one call.
type SweepRequest struct {
	Specs []SubmitRequest `json:"specs"`
}

// SweepItem is one batch entry's outcome; Code is the HTTP status the
// same spec would have received submitted alone (200 cache hit, 202
// accepted, 400 invalid, 429 shed).
type SweepItem struct {
	JobResponse
	Code int `json:"code"`
}

// SweepResponse reports per-spec outcomes plus how many were shed.
type SweepResponse struct {
	Jobs []SweepItem `json:"jobs"`
	Shed int         `json:"shed"`
}

// StatsResponse is the server's operational counters.
type StatsResponse struct {
	Preset   string         `json:"preset"`
	Workers  int            `json:"workers"`
	QueueCap int            `json:"queueCap"`
	QueueLen int            `json:"queueLen"`
	Draining bool           `json:"draining"`
	Jobs     map[string]int `json:"jobs"`
	Admitted uint64         `json:"admitted"`
	Shed     uint64         `json:"shed"`
	CacheHit uint64         `json:"cacheHits"`
	Done     uint64         `json:"completed"`
	Failed   uint64         `json:"failed"`
	Preempts uint64         `json:"preempted"`
	Panics   uint64         `json:"panics"`
	Resumed  uint64         `json:"resumed"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
