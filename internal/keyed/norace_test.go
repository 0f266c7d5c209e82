//go:build !race

package keyed

// raceEnabled reports a -race build, whose detector allocates on its own.
const raceEnabled = false
