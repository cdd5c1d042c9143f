//go:build race

package extract

// raceEnabled skips the AllocsPerRun assertions under the race detector,
// whose instrumentation allocates on paths that are allocation-free in
// normal builds, and makes pool-hit assertions retry, since the detector's
// sync.Pool drops Put items at random.
const raceEnabled = true
