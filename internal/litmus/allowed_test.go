package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"memsim/internal/consistency"
)

// testdata/allowed.json pins the allowed-outcome set of every library
// test under every model: per "test/model" pair the outcome count and
// the SHA-256 of the newline-joined sorted outcome keys. The table was
// generated from the SC-interleaving oracle plus the hand-written
// per-test whitelists the spec-derived engine replaced (this file
// compiles and regenerates the table byte-for-byte at that commit), so
// it holds the engine to the sets a human once wrote down.
//
// Regenerate after an intentional change to a model's relaxations or
// to the library with:
//
//	go test ./internal/litmus -run TestAllowedTable -update
//
// and justify the diff in the commit message.

var update = flag.Bool("update", false, "rewrite testdata/allowed.json from the current allowed sets")

const allowedTablePath = "testdata/allowed.json"

type allowedEntry struct {
	Count  int    `json:"count"`
	SHA256 string `json:"sha256"`
}

func TestAllowedTable(t *testing.T) {
	got := make(map[string]allowedEntry)
	keys := make(map[string][]string)
	for _, lt := range Library() {
		for _, m := range consistency.Models {
			k := lt.AllowedKeys(consistency.SpecFor(m))
			sum := sha256.Sum256([]byte(strings.Join(k, "\n")))
			name := lt.Name + "/" + m.String()
			got[name] = allowedEntry{Count: len(k), SHA256: hex.EncodeToString(sum[:])}
			keys[name] = k
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allowedTablePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), allowedTablePath)
		return
	}

	data, err := os.ReadFile(allowedTablePath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]allowedEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", allowedTablePath, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d (test, model) pairs, table has %d", len(got), len(want))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: allowed set %+v, table %+v; keys now:\n  %s",
				name, g, w, strings.Join(keys[name], "\n  "))
		}
	}
}
