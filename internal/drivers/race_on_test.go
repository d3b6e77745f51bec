//go:build race

package drivers

// raceEnabled skips the alloc-count assertions under the race detector,
// whose instrumentation perturbs testing.AllocsPerRun.
const raceEnabled = true
