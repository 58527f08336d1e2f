//go:build race

package corpus

// raceEnabled disables wall-time assertions: the race detector slows the
// back end several times over.
const raceEnabled = true
