//go:build race

package main

// raceEnabled stretches the smoke run's windows: the race detector slows
// the matmuls several-fold, and a one-second window would close empty.
const raceEnabled = true
