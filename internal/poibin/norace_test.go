//go:build !race

package poibin

const raceEnabled = false
