//go:build !race

package persist_test

const raceEnabled = false
