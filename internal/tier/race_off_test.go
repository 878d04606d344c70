//go:build !race

package tier

const raceEnabled = false
