//go:build race

package dfs

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
