//go:build !race

package cliquemap

const raceEnabled = false
