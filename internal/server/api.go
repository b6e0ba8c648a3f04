package server

import (
	"encoding/json"

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

// Spec converts the wire request into a RunSpec, validating the names;
// the numbers are the machine's to judge (Runner.Validate).
func (q SubmitRequest) Spec() (experiments.RunSpec, error) {
	bench, err := experiments.ParseBench(q.Bench)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	model, err := consistency.ParseModel(q.Model)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	sched, err := workloads.ParseRelaxSchedule(q.RelaxSched)
	return experiments.RunSpec{
		Bench:      bench,
		Model:      model,
		CacheSize:  q.CacheSize,
		LineSize:   q.LineSize,
		LoadDelay:  q.LoadDelay,
		Procs:      q.Procs,
		MSHRs:      q.MSHRs,
		RelaxSched: sched,
	}, err
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
