//go:build race

package persist_test

// raceEnabled reports that the race detector is compiled in: its shadow
// bookkeeping allocates, so allocation budgets cannot be asserted.
const raceEnabled = true
