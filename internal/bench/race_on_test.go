//go:build race

package bench

// raceEnabled skips the AllocsPerRun assertions under the race detector,
// whose instrumentation allocates, and whose sync.Pool drops Put items at
// random.
const raceEnabled = true
