package machine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/machine"
	"memsim/internal/workloads"
)

// TestChecksumMatchesEncode: Checksum, which hashes the encoder's own
// buffer, and Encode, whose bytes memsimd keeps, share one digest. For
// a result of each benchmark at 8 and at 64 CPUs and for a zero Result,
// Checksum must equal Encode's digest, on a first call and on a later
// one, and Encode's bytes must be json.Marshal's.
func TestChecksumMatchesEncode(t *testing.T) {
	results := map[string]machine.Result{"zero": {}}
	for _, procs := range []int{8, 64} {
		for _, w := range []workloads.Workload{
			workloads.Gauss(procs, 16, 3),
			workloads.Qsort(procs, 4*procs, 3),
			workloads.Relax(procs, procs, 1, workloads.RelaxDefault, 3),
			workloads.Psim(procs, 4*procs, 2, 3),
		} {
			m, err := machine.New(machine.Config{Procs: procs, Model: consistency.RC, CacheSize: 4 << 10,
				LineSize: 16, SharedWords: w.SharedWords}, w.Programs)
			if err != nil {
				t.Fatal(err)
			}
			w.Setup(m.Shared())
			res, err := m.Run(0)
			if err != nil {
				t.Fatalf("%s at %d CPUs: %v", w.Name, procs, err)
			}
			results[fmt.Sprintf("%s/%d", w.Name, procs)] = res
		}
	}
	for name, res := range results {
		canonical, sum := res.Encode()
		if want, err := json.Marshal(res); err != nil || !bytes.Equal(canonical, want) {
			t.Errorf("%s: Encode's bytes are not json.Marshal's (%v):\n%s\n%s", name, err, canonical, want)
		}
		for call := 1; call <= 2; call++ {
			if got := res.Checksum(); got != sum {
				t.Errorf("%s: Checksum %s on call %d, Encode's digest %s", name, got, call, sum)
			}
		}
	}
}
