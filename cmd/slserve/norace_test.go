//go:build !race

package main

// raceEnabled reports a -race build, whose detector allocates on its own.
const raceEnabled = false
