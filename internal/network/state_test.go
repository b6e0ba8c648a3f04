package network

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live network is either carried
// by NetState or deliberately not, and then says what Reset does with
// it; a field added without deciding fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Resettable(t, Network{}, NetState{}, map[string]string{
		"eng":     "kept: engine pointer",
		"ports":   "kept: topology",
		"padded":  "kept: topology",
		"stages":  "kept: topology",
		"bufCap":  "reset: from the configuration",
		"deliver": "kept: machine callback, wired at construction",
		"tfree":   "kept: free list",
		"faults":  "reset: detached, the machine attaches its injector again. The machine saves the injector",
		"unit":    "kept: construction constant",
		"mc":      "reset: detached. The machine saves the collector",
		"netid":   "reset: with mc",
	})
	statecheck.Resettable(t, port{}, PortState{}, map[string]string{
		"head":   "reset: to 0. Save writes queue from here; a loaded queue starts at 0",
		"freeFn": "kept: prebuilt callback",
	})
	statecheck.Resettable(t, transit{}, waiting{}, map[string]string{
		"hop":       "reset: set by allocTransit. Implied by the port that queues it, or carried by its advance event",
		"next":      "kept: free-list link",
		"advanceFn": "kept: prebuilt callback",
	})
}
