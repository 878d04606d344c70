//go:build race

package client

// raceEnabled reports that the race detector is compiled in: its shadow
// bookkeeping allocates, so allocation budgets cannot be asserted.
const raceEnabled = true
