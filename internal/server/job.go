package server

import (
	"context"
	"sync"

	"memsim/internal/experiments"
)

// Job is one submitted run's lifecycle record. Its status walks
// queued → running → done|failed, with running → queued again on
// preemption; a failed job resubmitted by a client is replaced by a
// fresh one. The done channel is closed when the job reaches a terminal
// state, so long-polling handlers can wait without spinning. A done
// job holds the run's cache entry, the one copy of result and checksum.
type Job struct {
	id   string
	key  string
	spec experiments.RunSpec

	mu     sync.Mutex
	status experiments.Status
	entry  *CacheEntry // set when done
	errmsg string
	cancel context.CancelFunc // set while running; preempt calls it
	done   chan struct{}
}

func newJob(id, key string, spec experiments.RunSpec) *Job {
	return &Job{id: id, key: key, spec: spec,
		status: experiments.StatusQueued, done: make(chan struct{})}
}

// doneJob builds a job already in its terminal done state (journal
// replay of a completed run whose cache entry verified).
func doneJob(e *CacheEntry) *Job {
	j := newJob(e.ID, e.Key, e.Spec)
	j.status = experiments.StatusDone
	j.entry = e
	close(j.done)
	return j
}

// failedJob builds a job already in its terminal failed state.
func failedJob(id, key string, spec experiments.RunSpec, errmsg string) *Job {
	j := newJob(id, key, spec)
	j.status = experiments.StatusFailed
	j.errmsg = errmsg
	close(j.done)
	return j
}

// start marks the job running and installs its preemption handle.
func (j *Job) start(cancel context.CancelFunc) {
	j.mu.Lock()
	j.status = experiments.StatusRunning
	j.cancel = cancel
	j.mu.Unlock()
}

// complete records a successful result and wakes waiters.
func (j *Job) complete(e *CacheEntry) {
	j.mu.Lock()
	j.status = experiments.StatusDone
	j.entry = e
	j.cancel = nil
	close(j.done)
	j.mu.Unlock()
}

// fail records a terminal failure and wakes waiters.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.status = experiments.StatusFailed
	j.errmsg = err.Error()
	j.cancel = nil
	close(j.done)
	j.mu.Unlock()
}

// requeued returns the job to the queued state after a preemption;
// waiters keep waiting — the job is still pending.
func (j *Job) requeued() {
	j.mu.Lock()
	j.status = experiments.StatusQueued
	j.cancel = nil
	j.mu.Unlock()
}

// preempt requests checkpoint-and-requeue of a running job. It
// reports whether the job was running (and therefore cancelable).
func (j *Job) preempt() bool {
	j.mu.Lock()
	cancel := j.cancel
	running := j.status == experiments.StatusRunning && cancel != nil
	j.mu.Unlock()
	if running {
		cancel()
	}
	return running
}

// Status returns the job's current status.
func (j *Job) Status() experiments.Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// response renders the job's current state as a wire response.
func (j *Job) response(cached bool) JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.entry != nil {
		return j.entry.response(cached)
	}
	return JobResponse{ID: j.id, Key: j.key, Status: string(j.status), Error: j.errmsg}
}
