package memory

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live module is either carried
// by ModuleState or deliberately not; a field added without deciding
// fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Fields(t, Module{}, ModuleState{}, map[string]string{
		"eng":       "engine pointer",
		"id":        "construction constant",
		"lineSize":  "construction constant",
		"words":     "construction constant",
		"send":      "network attachment, wired at construction",
		"whenSpace": "network attachment, wired at construction",
		"unbusyFn":  "prebuilt callback",
		"drainFn":   "prebuilt callback",
		"headFree":  "free list; a pending head event rides in its engine descriptor",
		"mc":        "collector attachment; the machine saves the collector",
	})
}
