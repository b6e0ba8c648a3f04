package robust

import "memsim/internal/sim"

// Watchdog detects stalled simulations: every Window cycles it samples
// a monotone progress counter (for the machine, total instructions
// retired) and invokes OnStall if a full window elapsed with no
// change. Done short-circuits the check and stops the watchdog once
// the run has finished, so residual ticks never fire after completion.
//
// The watchdog schedules nothing itself: its owner calls Check once per
// window (the machine from a tick event a snapshot can save). It reads
// state only and therefore never perturbs simulated timing.
type Watchdog struct {
	Window   sim.Cycle
	Progress func() uint64 // monotone forward-progress counter
	Done     func() bool   // run-finished predicate; stops the ticks
	OnStall  func(window sim.Cycle, progress uint64)

	last  uint64
	armed bool
}

// Arm initializes the progress baseline. It panics (a configuration
// bug, not a simulated failure) if the window or callbacks are unset.
func (w *Watchdog) Arm() {
	if w.Window == 0 || w.Progress == nil || w.OnStall == nil {
		panic("robust: watchdog needs Window, Progress and OnStall")
	}
	if w.armed {
		panic("robust: watchdog started twice")
	}
	w.armed = true
	w.last = w.Progress()
}

// Check performs one window check and reports whether the watchdog
// should keep ticking: false once the run is done or a stall was
// reported (OnStall normally raises; stop if it returns).
func (w *Watchdog) Check() bool {
	if w.Done != nil && w.Done() {
		return false
	}
	cur := w.Progress()
	if cur == w.last {
		w.OnStall(w.Window, cur)
		return false
	}
	w.last = cur
	return true
}

// Last returns the progress baseline of the current window, for
// snapshots.
func (w *Watchdog) Last() uint64 { return w.last }

// Restore puts an armed watchdog back mid-window, at a saved baseline.
func (w *Watchdog) Restore(last uint64) { w.last = last }
