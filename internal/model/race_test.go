//go:build race

package model_test

// raceEnabled reports that the race detector instruments this test
// binary, which runs the interpreter an order of magnitude slower.
const raceEnabled = true
