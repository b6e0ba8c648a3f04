// Timing-revision pin.
//
// TestTimingRevisionPinned ties machine.TimingRevision to the golden
// corpora it was regenerated with: testdata/golden/timing-revision.json
// holds the revision beside a digest of quick.json, zoo.json and
// big.json. Sweep journals and memsimd's result cache serve a stored
// result only under the revision that simulated it, and a checksum
// cannot tell them apart (a timing change moves results without
// changing how they are digested). So corpora that moved under an
// unchanged revision fail here: a timing change cannot forget the bump.
//
// After an intentional timing change, regenerate the corpora, bump
// machine.TimingRevision, and then:
//
//	go test -run TestTimingRevisionPinned -update
package memsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"memsim/internal/machine"
)

const timingRevisionPath = "testdata/golden/timing-revision.json"

type timingPin struct {
	Revision int    `json:"revision"`
	Corpora  string `json:"corpora_sha256"`
}

func TestTimingRevisionPinned(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"quick.json", "zoo.json", "big.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	got := timingPin{Revision: machine.TimingRevision, Corpora: hex.EncodeToString(h.Sum(nil))}
	var want timingPin
	if raw, err := os.ReadFile(timingRevisionPath); err != nil || json.Unmarshal(raw, &want) != nil {
		t.Fatalf("reading %s: %v", timingRevisionPath, err)
	}
	switch {
	case got == want:
	case got.Revision == want.Revision:
		t.Fatalf("the golden corpora moved (digest %s, pinned %s) but machine.TimingRevision is still %d: "+
			"bump it so journals and result caches re-run what the old timing produced, then run -update",
			got.Corpora, want.Corpora, want.Revision)
	case *update:
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(timingRevisionPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned timing revision %d to corpora %s", got.Revision, got.Corpora)
	default:
		t.Fatalf("machine.TimingRevision is %d, %s pins %d: run -update", got.Revision, timingRevisionPath, want.Revision)
	}
}
