package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"memsim/internal/consistency"
	"memsim/internal/machine"
	"memsim/internal/robust"
)

// quickSpec is the canonical cheap configuration for resilience tests.
func quickSpec(p Params) RunSpec {
	return RunSpec{Bench: BGauss, Model: consistency.SC1, CacheSize: p.LargeCache, LineSize: p.LineSizes[0]}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state", "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	res := machine.Result{Cycles: 1234, Events: 56}
	entries := []JournalEntry{
		{Key: "a", Spec: RunSpec{Bench: BGauss, Model: consistency.SC1}, Status: StatusRunning},
		{Key: "a", Spec: RunSpec{Bench: BGauss, Model: consistency.SC1}, Status: StatusDone, Checksum: res.Checksum(), Result: &res},
		{Key: "b", Spec: RunSpec{Bench: BQsort, Model: consistency.RC}, Status: StatusFailed, Err: "stall"},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Key != e.Key || g.Status != e.Status || g.Checksum != e.Checksum || g.Err != e.Err || g.Spec != e.Spec {
			t.Errorf("entry %d: got %+v, want %+v", i, g, e)
		}
	}
	if got[1].Result == nil || got[1].Result.Checksum() != res.Checksum() {
		t.Error("embedded result did not survive the round trip")
	}
}

func TestJournalCrashTailAndCorruption(t *testing.T) {
	dir := t.TempDir()

	// A truncated final line — the crash signature — is dropped.
	tail := filepath.Join(dir, "tail.jsonl")
	valid := `{"key":"a","spec":{},"status":"running"}` + "\n"
	if err := os.WriteFile(tail, []byte(valid+`{"key":"b","sta`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayJournal(tail)
	if err != nil {
		t.Fatalf("truncated tail should replay cleanly: %v", err)
	}
	if len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("replayed %+v, want the single valid entry", got)
	}

	// A malformed line followed by valid data is interior corruption.
	mid := filepath.Join(dir, "mid.jsonl")
	if err := os.WriteFile(mid, []byte("garbage\n"+valid), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(mid); err == nil {
		t.Error("interior corruption replayed without error")
	}

	// A missing journal replays as empty.
	got, err = ReplayJournal(filepath.Join(dir, "nope.jsonl"))
	if err != nil || got != nil {
		t.Errorf("missing journal: got (%v, %v), want (nil, nil)", got, err)
	}
}

// TestSeedValidatesChecksums pins that resume trusts a journal entry
// only when its embedded result reproduces the recorded checksum, and
// that a seeded result is recalled without re-simulation.
func TestSeedValidatesChecksums(t *testing.T) {
	p := Quick()
	spec := quickSpec(p)

	// A fabricated result no real simulation would produce: if Run
	// returns it verbatim, the cache (not the simulator) answered.
	fake := machine.Result{Cycles: 42, Events: 7}
	r := NewRunner(p)
	n := r.Seed([]JournalEntry{{Key: r.Key(spec), Spec: spec, Status: StatusDone, Checksum: fake.Checksum(), Result: &fake}})
	if n != 1 {
		t.Fatalf("Seed loaded %d entries, want 1", n)
	}
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum() != fake.Checksum() {
		t.Errorf("Run re-simulated a seeded spec: got cycles=%d events=%d", res.Cycles, res.Events)
	}

	// Tampered checksum, failed status, and missing result all refuse.
	bad := []JournalEntry{
		{Key: "x", Spec: spec, Status: StatusDone, Checksum: "tampered", Result: &fake},
		{Key: "y", Spec: spec, Status: StatusFailed, Checksum: fake.Checksum(), Result: &fake},
		{Key: "z", Spec: spec, Status: StatusDone, Checksum: fake.Checksum()},
	}
	if n := NewRunner(p).Seed(bad); n != 0 {
		t.Errorf("Seed accepted %d invalid entries", n)
	}
}

// TestSeedIgnoresParentFormatJournal: each file under testdata is what
// `sweep -state` wrote for one run under an older simulator. Every line
// is well-formed and its result decodes, but its cycle counts are
// another machine's, so a resumed sweep must run the spec again, never
// serve it:
//
//   - journal-events-checksum.jsonl predates Events leaving the
//     checksum and processors getting their slot in the cycle.
//   - journal-rev0.jsonl has today's format, but its checksum was taken
//     before checksums covered machine.TimingRevision, under a network
//     whose ports freed with an event of their own.
func TestSeedIgnoresParentFormatJournal(t *testing.T) {
	for _, file := range []string{"testdata/journal-events-checksum.jsonl", "testdata/journal-rev0.jsonl"} {
		entries, err := ReplayJournal(file)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(entries); n != 2 || entries[1].Status != StatusDone || entries[1].Result == nil || entries[1].Result.Cycles == 0 {
			t.Fatalf("%s holds %d entries, want a running and a done line with its result", file, n)
		}
		started := 0
		r := NewRunner(Quick())
		r.OnStart = func(string, RunSpec) { started++ }
		if n := r.Seed(entries); n != 0 {
			t.Errorf("%s: Seed loaded %d entries", file, n)
		}
		res, err := r.Run(entries[1].Spec)
		if err != nil {
			t.Fatal(err)
		}
		if started != 1 || res.Checksum() == entries[1].Checksum {
			t.Errorf("%s: the spec was started %d times and ended on checksum %s; the journal's is %s", file, started, res.Checksum(), entries[1].Checksum)
		}
	}
}

func TestRunnerCanceledNotRetried(t *testing.T) {
	p := Quick()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var failures []error
	r := NewRunner(p)
	r.BaseCtx = ctx
	r.Retries = 3
	r.Backoff = time.Hour // a retry would hang the test; cancellation must not retry
	r.OnFailure = func(key string, spec RunSpec, err error) { failures = append(failures, err) }

	start := time.Now()
	_, err := r.Run(quickSpec(p))
	if err == nil {
		t.Fatal("run under a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
	var se *robust.SimError
	if !errors.As(err, &se) || se.Kind != robust.Canceled {
		t.Errorf("error is not a Canceled SimError: %v", err)
	}
	if len(failures) != 1 || !errors.Is(failures[0], context.Canceled) {
		t.Errorf("OnFailure fired %d times (%v), want once with the cancellation", len(failures), failures)
	}
	if time.Since(start) > 30*time.Second {
		t.Error("cancellation appears to have waited out a retry backoff")
	}
}

// TestRunnerWedgedRunFailsCleanly pins that a run hitting its event
// limit (the orchestrator's wedge bound) surfaces a failure through
// OnFailure without poisoning the runner for other specs.
func TestRunnerWedgedRunFailsCleanly(t *testing.T) {
	p := Quick()
	p.MaxEvents = 1000 // far below any real run
	var failedKey string
	r := NewRunner(p)
	r.OnFailure = func(key string, spec RunSpec, err error) { failedKey = key }

	spec := quickSpec(p)
	_, err := r.Run(spec)
	var se *robust.SimError
	if !errors.As(err, &se) || se.Kind != robust.EventLimit {
		t.Fatalf("want an EventLimit SimError, got %v", err)
	}
	if failedKey != r.Key(spec) {
		t.Errorf("OnFailure key %q, want %q", failedKey, r.Key(spec))
	}

	// The same runner still serves other specs.
	p2 := Quick()
	r2 := NewRunner(p2)
	want, err := r2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cycles == 0 {
		t.Fatal("control run produced no cycles")
	}
}

// TestRunnerResumesFromCheckpoint plants a genuine mid-run snapshot at
// the runner's checkpoint path and verifies Run resumes from it — and
// that the resumed run reproduces the uninterrupted checksum and
// retires the spent snapshot file.
func TestRunnerResumesFromCheckpoint(t *testing.T) {
	p := Quick()
	spec := quickSpec(p)

	control := NewRunner(p)
	want, err := control.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	r := NewRunner(p)
	r.Log = &log
	r.Ckpt = CheckpointPolicy{Dir: t.TempDir()}
	key := r.Key(spec)

	m, err := r.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	at := uint64(want.Cycles) / 2
	if _, err := m.RunControlled(machine.RunControl{Until: at}); !errors.Is(err, machine.ErrPaused) {
		t.Fatalf("pause at %d: %v", at, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := r.ckptPath(key)
	if err := machine.WriteSnapshotFile(ckpt, snap); err != nil {
		t.Fatal(err)
	}

	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum() != want.Checksum() {
		t.Errorf("resumed checksum drifted\n  want %s\n  got  %s", want.Checksum(), res.Checksum())
	}
	if !strings.Contains(log.String(), "resumed") {
		t.Errorf("log does not record the resume:\n%s", log.String())
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("spent checkpoint %s was not removed (stat: %v)", ckpt, err)
	}
}

// TestRunnerCorruptCheckpointFallsBack pins the degraded path: garbage
// at the checkpoint path must not fail the run — it reruns fresh.
func TestRunnerCorruptCheckpointFallsBack(t *testing.T) {
	p := Quick()
	spec := quickSpec(p)
	want, err := NewRunner(p).Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Version-2 and -3 files: a genuine mid-run checkpoint of this very
	// spec, valid down to its checksum, whose header says the format of
	// an older machine — for version 3, the one that freed every network
	// port with an event of its own: decodable, and not resumable.
	m, err := NewRunner(p).Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunControlled(machine.RunControl{Until: 1000}); !errors.Is(err, machine.ErrPaused) {
		t.Fatalf("want ErrPaused, got %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(t.TempDir(), "v2.mcsp")
	if err := machine.WriteSnapshotFile(v2, snap); err != nil {
		t.Fatal(err)
	}
	v2File, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	v2File[4] = 2
	v3File := slices.Clone(v2File)
	v3File[4] = 3

	for _, c := range []struct {
		name    string
		file    []byte
		wantLog string
	}{
		{"garbage", []byte("not a snapshot"), "unreadable"},
		{"format version 2", v2File, "format version 2, want 4 (a version-2 run ordered"},
		{"format version 3", v3File, "format version 3, want 4 (a version-3 run freed every network port"},
	} {
		var log bytes.Buffer
		r := NewRunner(p)
		r.Log = &log
		r.Ckpt = CheckpointPolicy{Dir: t.TempDir()}
		ckpt := r.ckptPath(r.Key(spec))
		if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt, c.file, 0o644); err != nil {
			t.Fatal(err)
		}

		res, err := r.Run(spec)
		if err != nil {
			t.Fatalf("%s: run with corrupt checkpoint failed: %v", c.name, err)
		}
		if res.Checksum() != want.Checksum() {
			t.Errorf("%s: fresh fallback run drifted from the control checksum", c.name)
		}
		if !strings.Contains(log.String(), c.wantLog) || strings.Contains(log.String(), "resumed") {
			t.Errorf("%s: log does not record the fallback (%q):\n%s", c.name, c.wantLog, log.String())
		}
	}
}

// TestRunnerTimeoutRetriesMakeProgress drives a run whose wall-clock
// timeout is far shorter than the full simulation and verifies that
// checkpoint-per-cancellation plus retries still completes it — each
// attempt resumes where the last one timed out — with the hooks firing
// once and the checksum intact.
func TestRunnerTimeoutRetriesMakeProgress(t *testing.T) {
	p := Quick()
	spec := quickSpec(p)
	want, err := NewRunner(p).Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	starts, results := 0, 0
	r := NewRunner(p)
	r.Timeout = 5 * time.Millisecond
	r.Retries = 500
	r.Ckpt = CheckpointPolicy{Dir: t.TempDir()}
	r.OnStart = func(string, RunSpec) { starts++ }
	r.OnResult = func(string, RunSpec, machine.Result) { results++ }

	res, err := r.Run(spec)
	if err != nil {
		t.Fatalf("timeout-retry run failed: %v", err)
	}
	if res.Checksum() != want.Checksum() {
		t.Errorf("checksum drifted across timeout retries\n  want %s\n  got  %s", want.Checksum(), res.Checksum())
	}
	if starts != 1 || results != 1 {
		t.Errorf("hooks fired start=%d result=%d, want 1/1 (retries must not re-fire hooks)", starts, results)
	}
}

// TestJournalFinishMarksCompletion covers the all-failed sweep path:
// a sweep that runs every experiment to completion — even with every
// one failing — must still finalize its journal with the terminal
// sweep-end marker, and that marker must replay cleanly and not
// disturb cache seeding. Close must also be idempotent, since the
// sweep finalizes explicitly before exiting nonzero while a deferred
// Close still runs.
func TestJournalFinishMarksCompletion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fails := []JournalEntry{
		{Key: "a", Spec: RunSpec{Bench: BGauss, Model: consistency.SC1}, Status: StatusRunning},
		{Key: "a", Spec: RunSpec{Bench: BGauss, Model: consistency.SC1}, Status: StatusFailed, Err: "stall"},
		{Key: "b", Spec: RunSpec{Bench: BQsort, Model: consistency.RC}, Status: StatusRunning},
		{Key: "b", Spec: RunSpec{Bench: BQsort, Model: consistency.RC}, Status: StatusFailed, Err: "timeout"},
	}
	for _, e := range fails {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close must be a no-op, got %v", err)
	}
	if err := j.Append(JournalEntry{Key: "late"}); err == nil {
		t.Error("Append after Close must fail")
	}

	got, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fails)+1 {
		t.Fatalf("replayed %d entries, want %d", len(got), len(fails)+1)
	}
	last := got[len(got)-1]
	if last.Status != StatusSweepEnd {
		t.Errorf("terminal entry status = %q, want %q", last.Status, StatusSweepEnd)
	}
	if last.Summary != "2 of 2 experiments failed" {
		t.Errorf("terminal summary = %q", last.Summary)
	}

	// Seeding from an all-failed, finished journal recalls nothing and
	// does not trip over the marker.
	r := NewRunner(Quick())
	if n := r.Seed(got); n != 0 {
		t.Errorf("seeded %d runs from an all-failed journal, want 0", n)
	}
}
