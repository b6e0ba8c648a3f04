package network

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live network is either carried
// by NetState or deliberately not; a field added without deciding fails
// here.
func TestStateComplete(t *testing.T) {
	statecheck.Fields(t, Network{}, NetState{}, map[string]string{
		"eng":     "engine pointer",
		"ports":   "construction constant",
		"padded":  "construction constant",
		"stages":  "construction constant",
		"bufCap":  "construction constant",
		"deliver": "machine callback, wired at construction",
		"tfree":   "free list",
		"faults":  "injector attachment; the machine saves the injector",
		"unit":    "construction constant",
		"mc":      "collector attachment; the machine saves the collector",
		"netid":   "construction constant",
	})
	statecheck.Fields(t, port{}, PortState{}, map[string]string{
		"head":   "Save writes queue from here; a loaded queue starts at 0",
		"freeFn": "prebuilt callback",
	})
	statecheck.Fields(t, transit{}, waiting{}, map[string]string{
		"hop":       "implied by the port that queues it, or carried by its advance event",
		"next":      "free-list link",
		"advanceFn": "prebuilt callback",
	})
}
