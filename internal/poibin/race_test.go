//go:build race

package poibin

// raceEnabled scales the exhaustive tests down under the race detector,
// which slows their float loops about tenfold.
const raceEnabled = true
