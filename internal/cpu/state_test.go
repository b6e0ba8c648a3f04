package cpu

import (
	"testing"

	"memsim/internal/statecheck"
)

// TestStateComplete: every field of the live processor is either
// carried by CPUState or deliberately not, and then says what Reset
// does with it; a field added without deciding fails here.
func TestStateComplete(t *testing.T) {
	statecheck.Resettable(t, CPU{}, CPUState{}, map[string]string{
		"eng":          "kept: engine pointer",
		"id":           "reset: from the configuration",
		"spec":         "reset: from the configuration",
		"prog":         "reset: from the configuration (Restore checks the program hash)",
		"cache":        "reset: from the configuration; a new one gets the retirement listener",
		"mem":          "reset: from the configuration",
		"loadDelay":    "reset: from the configuration",
		"branchDelay":  "reset: from the configuration",
		"maxOut":       "reset: from the configuration",
		"spinFF":       "reset: from the configuration",
		"opFree":       "kept: free list",
		"handler":      "kept: wiring, the one engine handler (fire)",
		"spinNoticeFn": "kept: prebuilt callback",
		"onHalt":       "reset: from the configuration",
		"mc":           "reset: detached. The machine saves the collector",
		"pendMask":     "reset: zeroed; derived from the register file, which Load recomputes it from",
		"readyMax":     "reset: zeroed; derived from the register file, which Load recomputes it from",
	})
	statecheck.Resettable(t, pendingOp{}, opData{}, map[string]string{
		"c":    "kept: owner pointer, set by allocOp",
		"next": "kept: free-list link",
	})
}
