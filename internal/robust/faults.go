package robust

import "fmt"

// Faults configures deterministic network fault injection: each time a
// network port begins servicing a message, with probability DelayProb
// its service is stretched by an extra delay drawn uniformly from
// [1, MaxExtraDelay] cycles. Delays are applied at the port level, so
// per-port FIFO order — and therefore delivery order between any
// (source, destination) pair — is preserved; the perturbation changes
// timing only, never the protocol's message ordering guarantees.
//
// The zero value disables injection. Injection is fully determined by
// Seed and the (deterministic) order of port service events, so a run
// with a given Faults value is exactly reproducible.
type Faults struct {
	Seed          int64
	DelayProb     float64 // per-service probability of injecting a delay
	MaxExtraDelay int     // inclusive upper bound on the injected cycles
}

// Enabled reports whether the configuration injects any faults.
func (f Faults) Enabled() bool { return f.DelayProb > 0 && f.MaxExtraDelay > 0 }

// Validate rejects malformed fault configurations.
func (f Faults) Validate() error {
	if f.DelayProb < 0 || f.DelayProb > 1 {
		return fmt.Errorf("robust: fault delay probability %v outside [0,1]", f.DelayProb)
	}
	if f.MaxExtraDelay < 0 {
		return fmt.Errorf("robust: negative max extra delay %d", f.MaxExtraDelay)
	}
	return nil
}

// Injector draws per-service extra delays from a splitmix64 stream.
// One injector may be shared by several networks: draws interleave in
// deterministic engine order.
type Injector struct {
	cfg      Faults
	state    uint64
	Injected uint64 // services that received an extra delay
	Extra    uint64 // total extra cycles injected
}

// Reset seeds the injector — the zero value, or one a run has used —
// for the given configuration: the start of its delay stream, counters
// zero. A nil injector (and one reset to a disabled Faults) injects
// nothing.
func (in *Injector) Reset(f Faults) {
	*in = Injector{cfg: f, state: uint64(f.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// SplitMix64 steps a splitmix64 stream held in *x and returns the next
// value. Every seeded choice in the repo — fault delays, litmus
// perturbations, generated programs, chaos schedules — draws from one
// of these, each from its own private state.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// InjectorState is an injector's complete serializable state.
type InjectorState struct {
	Cfg      Faults
	State    uint64
	Injected uint64
	Extra    uint64
}

// Save captures the injector's stream position and counters. Safe on a
// nil receiver (returns a zero state).
func (in *Injector) Save() InjectorState {
	if in == nil {
		return InjectorState{}
	}
	return InjectorState{Cfg: in.cfg, State: in.state, Injected: in.Injected, Extra: in.Extra}
}

// Load restores a saved stream position so the injector continues the
// exact same delay sequence.
func (in *Injector) Load(st InjectorState) {
	in.cfg = st.Cfg
	in.state = st.State
	in.Injected = st.Injected
	in.Extra = st.Extra
}

// ExtraDelay returns the cycles to add to the current port service:
// zero most of the time, 1..MaxExtraDelay with probability DelayProb.
// Safe on a nil receiver.
func (in *Injector) ExtraDelay() int {
	if in == nil || !in.cfg.Enabled() {
		return 0
	}
	if float64(SplitMix64(&in.state)>>11)/(1<<53) >= in.cfg.DelayProb {
		return 0
	}
	d := 1 + int(SplitMix64(&in.state)%uint64(in.cfg.MaxExtraDelay))
	in.Injected++
	in.Extra += uint64(d)
	return d
}
