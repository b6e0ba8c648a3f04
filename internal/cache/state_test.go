package cache

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live cache is either carried
// by CacheState or deliberately not; a field added without deciding
// fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Fields(t, Cache{}, CacheState{}, map[string]string{
		"eng":         "engine pointer",
		"id":          "construction constant",
		"lineSize":    "construction constant",
		"words":       "construction constant",
		"numSets":     "construction constant",
		"assoc":       "construction constant",
		"send":        "network attachment, wired at construction",
		"whenSpace":   "network attachment, wired at construction",
		"outHead":     "Save writes outq from here; a loaded queue starts at 0",
		"drainFn":     "prebuilt callback",
		"onRetireAny": "registered by the processor at construction",
		"watchLine":   "re-armed by the spinning processor's Load",
		"watchFn":     "re-armed by the spinning processor's Load",
		"mc":          "collector attachment; the machine saves the collector",
	})
	statecheck.Fields(t, mshr{}, miss{}, map[string]string{
		"idx":    "construction constant",
		"on":     "saved by its owner through Binders, re-linked by LinkBinder",
		"bindFn": "prebuilt callback",
		"fillFn": "prebuilt callback",
	})
}
