package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check drives run in-process and returns the exit status and the two
// streams.
func check(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// allRepro requires a replay transcript in which every recorded
// violation reproduced: at least one REPRO line and no other verdict.
func allRepro(t *testing.T, code int, stdout, stderr string) {
	t.Helper()
	if code != 0 {
		t.Fatalf("replay exit %d, want 0\n%s%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 {
		t.Fatalf("replay replayed nothing:\n%s", stdout)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "REPRO ") {
			t.Errorf("replay line is not REPRO: %s", l)
		}
	}
}

func TestCommands(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings stdout must hold
		stderr []string
	}{
		{name: "list", args: []string{"list"},
			stdout: []string{"sb+fence", "iriw", "  TSO ", "  bWO1 "}},
		{name: "litmus passes", args: []string{"litmus", "-test", "sb", "-models", "SC1", "-runs", "20"},
			stdout: []string{"PASS sb         SC1   20 runs"}},
		{name: "litmus catches the seeded defect", args: []string{"litmus", "-test", "sb", "-models", "SC1", "-mutate", "sc-overlap"},
			code: 1, stdout: []string{"FAIL sb", `FORBIDDEN "P0:r4=0 P1:r4=0 | x=1 y=1"`}, stderr: []string{"outside the allowed set"}},
		{name: "diff", args: []string{"diff", "-programs", "3", "-runs", "5"},
			stdout: []string{"difftest: 3 programs x 10 models x 5 runs: no discrepancies"}},
		{name: "compare", args: []string{"compare", "-models", "SC1,TSO"},
			stdout: []string{"SC1 -> TSO", `TSO \ SC1`, "P0: st x=1; ld y || P1: st y=1; ld x"}},
		{name: "one behavioral class", args: []string{"compare", "-models", "SC1,SC2"}, code: 1,
			stderr: []string{"check compare: "}},
		{name: "degenerate budget", args: []string{"compare", "-threads", "1"}, code: 1,
			stderr: []string{"check compare: ", "MaxThreads 1"}},
		{name: "no command", code: 2, stderr: []string{"usage: check <command>"}},
		{name: "unknown command", args: []string{"fuzz"}, code: 2,
			stderr: []string{`unknown command "fuzz"`, "usage: check <command>", "replay"}},
		{name: "unknown flag", args: []string{"litmus", "-model", "SC1"}, code: 2,
			stderr: []string{"flag provided but not defined: -model", "-models"}},
		{name: "unknown model", args: []string{"litmus", "-models", "SC9"}, code: 1,
			stderr: []string{`unknown model "SC9"`, "valid: SC1, SC2, WO1"}},
		{name: "unknown mutation", args: []string{"diff", "-mutate", "nope"}, code: 1,
			stderr: []string{"sc-overlap"}},
		{name: "replay without files", args: []string{"replay"}, code: 2,
			stderr: []string{"usage: check <command>", "replay   FILE...", "exit 0 iff every one reproduces"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := check(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestReplayLitmusVerdicts: a `litmus -json` stream recorded under a
// seeded defect is a verdict file replay reads back all-REPRO, exit 0;
// once a recorded outcome stops reproducing the same file exits 1.
func TestReplayLitmusVerdicts(t *testing.T) {
	code, stream, _ := check("litmus", "-test", "sb,mp", "-models", "SC1,SC2", "-runs", "60", "-mutate", "sc-overlap", "-json")
	if code != 1 {
		t.Fatalf("seeded defect: exit %d, want 1", code)
	}
	path := filepath.Join(t.TempDir(), "verdicts.json")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := check("replay", path)
	allRepro(t, code, stdout, stderr)

	// Either way a verdict stops holding, the same file exits 1: the run
	// no longer produces the recorded outcome (CLEAN), or it does and
	// the engine now allows it (LEGAL — here by re-labelling the SC1
	// reports as TSO's, which allows sb's relaxed outcome; a library
	// verdict is found by name and checked against the current engine).
	for word, edit := range map[string][2]string{
		"CLEAN": {`"outcome": "P0:r4=0 P1:r4=0 | x=1 y=1"`, `"outcome": "P0:r4=1 P1:r4=1 | x=1 y=1"`},
		"LEGAL": {"\n  \"model\": \"SC1\"", "\n  \"model\": \"TSO\""},
	} {
		edited := strings.ReplaceAll(stream, edit[0], edit[1])
		if edited == stream {
			t.Fatalf("the stream has no %s to edit", edit[0])
		}
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, _ = check("replay", path)
		if code != 1 || !strings.Contains(stdout, word+" ") {
			t.Errorf("edit %q: exit %d, want 1 and a %s line\n%s", edit[1], code, word, stdout)
		}
	}
}

// TestReplayDiffBundle: a seeded diff run finds the defect, shrinks it
// and writes a bundle, and replay accepts the bundle.
func TestReplayDiffBundle(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := check("diff", "-seed", "47", "-programs", "1", "-runs", "40",
		"-mutate", "wb-no-drain", "-models", "TSO", "-bundle-dir", dir)
	if code != 1 || !strings.Contains(stdout, "shrunk") || !strings.Contains(stdout, "1 bundle(s) in "+dir) {
		t.Fatalf("seeded wb-no-drain defect: exit %d\n%s%s", code, stdout, stderr)
	}
	code, stdout, stderr = check("replay", filepath.Join(dir, "wb-no-drain-tso-47.json"))
	allRepro(t, code, stdout, stderr)
}

// TestReplayCorpus: replay accepts every committed corpus file, and
// refuses a file that is not a verdict.
func TestReplayCorpus(t *testing.T) {
	corpus, err := filepath.Glob("../../internal/difftest/testdata/corpus/*.json")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	code, stdout, stderr := check(append([]string{"replay"}, corpus...)...)
	allRepro(t, code, stdout, stderr)

	code, _, stderr = check("replay", "../../internal/litmus/testdata/allowed.json")
	if code != 1 || !strings.Contains(stderr, "not a verdict file") {
		t.Errorf("a non-verdict file: exit %d, stderr %q", code, stderr)
	}
}
