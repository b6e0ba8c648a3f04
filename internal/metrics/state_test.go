package metrics

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live collector is either its
// CollectorState or deliberately not saved.
func TestStateComplete(t *testing.T) {
	statecheck.Fields(t, Collector{}, CollectorState{}, map[string]string{
		"sampler": "re-installed by machine.AttachMetrics",
		"msgs":    "a debugging window onto recent traffic, not attribution: a restored run's ring starts empty",
	})
}
