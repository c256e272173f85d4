//go:build race

package calib

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it (the instrumentation itself allocates).
const raceEnabled = true
