//go:build race

package interp_test

// raceEnabled reports that the race detector instruments this test
// binary, which runs the interpreter an order of magnitude slower.
const raceEnabled = true
