//go:build race

package serve

// raceEnabled reports that the race detector instruments this test
// binary; it drops a quarter of sync.Pool puts at random.
const raceEnabled = true
