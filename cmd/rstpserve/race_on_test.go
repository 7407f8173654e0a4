//go:build race

package main

// raceEnabled reports a race-detector build, which runs the stack about
// ten times slower.
const raceEnabled = true
