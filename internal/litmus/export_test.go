package litmus

// Update is the -update flag, for the tests in package litmus_test
// (those that import packages which import this one).
var Update = update

// RefOutcomes is the pre-explorer engine, the reference the explorer
// is held to from package litmus_test.
var RefOutcomes = refOutcomes
