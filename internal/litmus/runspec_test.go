package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"memsim/internal/consistency"
)

// testdata/runspec.json pins the JSON encoding of the replay record:
// the number of (test, model, seed) specs and the SHA-256 of their
// encodings, one per line, for the library x seeds 1..20 x {RC, TSO}.
// It was generated at the commit where Setup still disassembled every
// thread and formatted the variation eagerly (this file compiles and
// regenerates it byte-for-byte there), so it holds the on-demand text
// to the bytes the eager one wrote. Regenerate after an intentional
// change to the record, the code generator or the perturbation driver:
//
//	go test ./internal/litmus -run TestRunSpecJSONPinned -update

const runSpecPinPath = "testdata/runspec.json"

type runSpecPin struct {
	Count  int    `json:"count"`
	SHA256 string `json:"sha256"`
}

func TestRunSpecJSONPinned(t *testing.T) {
	h := sha256.New()
	var got runSpecPin
	for _, lt := range Library() {
		for _, m := range []consistency.Model{consistency.RC, consistency.TSO} {
			for seed := int64(1); seed <= 20; seed++ {
				rs, err := Setup(lt, m, seed, consistency.MutNone)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(rs)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(data)
				h.Write([]byte{'\n'})
				got.Count++
			}
		}
	}
	got.SHA256 = hex.EncodeToString(h.Sum(nil))

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runSpecPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %+v to %s", got, runSpecPinPath)
		return
	}
	data, err := os.ReadFile(runSpecPinPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want runSpecPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", runSpecPinPath, err)
	}
	if got != want {
		t.Errorf("replay records encode to %+v, pinned %+v", got, want)
	}
}

// TestRunSpecTextOnDemand: Setup leaves the record's text out; the
// JSON encoding carries it, by value or by pointer alike, and a run
// that fails names the drawn variation in its error.
func TestRunSpecTextOnDemand(t *testing.T) {
	sb, err := TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Setup(sb, consistency.RC, 7, consistency.MutNone)
	if err != nil {
		t.Fatal(err)
	}
	byPtr, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	byVal, err := json.Marshal(*rs)
	if err != nil {
		t.Fatal(err)
	}
	if string(byPtr) != string(byVal) {
		t.Errorf("encoding by pointer and by value differ:\n%s\n%s", byPtr, byVal)
	}
	var decoded RunSpec
	if err := json.Unmarshal(byPtr, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Programs) != sb.NumThreads() || !strings.HasPrefix(decoded.Desc, "cache=") {
		t.Fatalf("encoded record lacks its text: %d programs, desc %q", len(decoded.Programs), decoded.Desc)
	}

	rs.Machine.Procs = 3 // not a power of two: machine.New refuses
	_, err = rs.Execute(nil)
	if err == nil || !strings.Contains(err.Error(), "("+decoded.Desc+")") {
		t.Errorf("failed run's error %v does not carry the variation %q", err, decoded.Desc)
	}
}
