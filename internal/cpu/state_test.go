package cpu

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live processor is either
// carried by CPUState or deliberately not; a field added without
// deciding fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Fields(t, CPU{}, CPUState{}, map[string]string{
		"eng":          "engine pointer",
		"id":           "construction constant",
		"spec":         "construction constant",
		"prog":         "construction constant (Restore checks the program hash)",
		"cache":        "component pointer",
		"mem":          "component pointer",
		"loadDelay":    "construction constant",
		"branchDelay":  "construction constant",
		"maxOut":       "construction constant",
		"spinFF":       "construction constant",
		"opFree":       "free list",
		"runFn":        "prebuilt callback",
		"spinGhostFn":  "prebuilt callback",
		"spinNoticeFn": "prebuilt callback",
		"onHalt":       "machine callback, wired at construction",
		"mc":           "collector attachment; the machine saves the collector",
	})
	statecheck.Fields(t, pendingOp{}, opData{}, map[string]string{
		"c":    "owner pointer, set by allocOp",
		"next": "free-list link",
	})
}
