//go:build race

package checkpoint

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
