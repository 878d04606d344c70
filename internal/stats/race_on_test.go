//go:build race

package stats

// raceEnabled reports that the race detector is compiled in: it allocates
// on its own, so allocation counts mean nothing under it.
const raceEnabled = true
