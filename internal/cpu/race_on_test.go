//go:build race

package cpu

// raceEnabled skips the alloc-count assertions under the race detector,
// whose instrumentation perturbs testing.AllocsPerRun.
const raceEnabled = true
