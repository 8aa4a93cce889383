//go:build race

package serve

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop items at random, so allocation pins do not hold under it.
const raceEnabled = true
