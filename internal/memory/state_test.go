package memory

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live module is either carried
// by ModuleState or deliberately not, and then says what Reset does
// with it; a field added without deciding fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Resettable(t, Module{}, ModuleState{}, map[string]string{
		"eng":       "kept: engine pointer",
		"id":        "kept: construction constant",
		"lineSize":  "reset: from the configuration",
		"words":     "reset: from the configuration",
		"send":      "kept: network attachment, wired at construction",
		"whenSpace": "kept: network attachment, wired at construction",
		"drainFn":   "kept: prebuilt callback",
		"handler":   "kept: wiring, the one engine handler (fire)",
		"mc":        "reset: detached. The machine saves the collector",
	})
}
