package cache

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live cache is either carried
// by CacheState or deliberately not, and then says what Reset does with
// it; a field added without deciding fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Resettable(t, Cache{}, CacheState{}, map[string]string{
		"eng":         "kept: engine pointer",
		"id":          "kept: construction constant",
		"lineSize":    "reset: from the configuration",
		"words":       "reset: from the configuration",
		"numSets":     "reset: from the configuration",
		"assoc":       "reset: from the configuration",
		"send":        "kept: network attachment, wired at construction",
		"whenSpace":   "kept: network attachment, wired at construction",
		"outHead":     "reset: to 0. Save writes outq from here; a loaded queue starts at 0",
		"drainFn":     "kept: prebuilt callback",
		"handler":     "kept: wiring, the one engine handler (fire)",
		"onRetireAny": "kept: registered by the processor when it is first attached",
		"watchLine":   "reset: no watch. Re-armed by the spinning processor's Load",
		"watchFn":     "reset: no watch. Re-armed by the spinning processor's Load",
		"mc":          "reset: detached. The machine saves the collector",
	})
	statecheck.Resettable(t, mshr{}, miss{}, map[string]string{
		"on": "reset: nil. Saved by its owner through Binders, re-linked by LinkBinder",
	})
}
