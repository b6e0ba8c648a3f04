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
		"eng":      "kept: engine pointer",
		"ports":    "kept: topology",
		"padded":   "kept: topology",
		"stages":   "kept: topology",
		"bufCap":   "reset: from the configuration",
		"deliver":  "kept: machine callback, wired at construction",
		"handler":  "kept: wiring, the one engine handler (fire)",
		"held":     "reset: emptied, capacity kept. Saved port by port, as each PortState.Queue",
		"free":     "reset: to 0, slots are dealt from 1 again",
		"spaceDue": "reset: cleared. A pending space event names its source; CheckEvent puts the sender's callback back",
		"faults":   "reset: detached, the machine attaches its injector again. The machine saves the injector",
		"unit":     "kept: construction constant",
		"mc":       "reset: detached. The machine saves the collector",
		"netid":    "reset: with mc",
	})
	// freeAt is carried (PortState.FreeAt), so it takes no entry: Reset
	// zeroes it with the port, and a zero freeAt is a free port.
	statecheck.Resettable(t, port{}, PortState{}, map[string]string{
		"head": "reset: empty. The queue is saved by walking it (PortState.Queue)",
		"tail": "reset: empty, with head",
		"qlen": "reset: empty, with head",
	})
}
