//go:build race

package driver_test

// raceEnabled exempts the front ends' byte budgets: the race detector
// turns off the compiler's append-of-make optimisation that the slabs'
// slices.Grow relies on, so every chunk also costs a temporary as large
// as itself.
const raceEnabled = true
