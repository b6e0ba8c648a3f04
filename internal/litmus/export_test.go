package litmus

// Update is the -update flag, for the tests in package litmus_test
// (those that import packages which import this one).
var Update = update
