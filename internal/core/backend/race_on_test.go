//go:build race

package backend

// raceEnabled reports that the race detector is compiled in: the
// single-goroutine capacity runs take ~100 s under it and have nothing to
// show it.
const raceEnabled = true
