package litmus

// Update is the -update flag, for the tests in package litmus_test
// (those that import packages which import this one).
var Update = update

// RefOutcomes is the pre-explorer engine, the reference the explorer
// is held to from package litmus_test.
var RefOutcomes = refOutcomes

// ValueBits is the width of each field of the words of the test the
// explorer loaded last.
func (x *Explorer) ValueBits() uint { return x.vbits }

// RaceBuild reports whether the test binary carries the race detector.
var RaceBuild = raceBuild
