//go:build race

package harness

// raceEnabled reports whether the race detector is active; timing-based
// assertions (device pacing vs real compute) are skipped under -race
// because instrumented math overruns the emulated compute budgets.
const raceEnabled = true
