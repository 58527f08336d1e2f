//go:build race

package server

// raceEnabled exempts the tracing cost bounds: the race detector
// instruments what a span and a log line allocate.
const raceEnabled = true
