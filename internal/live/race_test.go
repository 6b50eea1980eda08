//go:build race

package live

// raceEnabled reports whether the race detector is compiled in; tests
// that measure the process's memory skip under it.
const raceEnabled = true
