//go:build !race

package corpus

const raceEnabled = false
