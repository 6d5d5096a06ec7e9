//go:build race

package main

// raceEnabled is true in a -race build, whose instrumentation slows the
// generator far past the pacing lateness TestPacerLateness bounds.
const raceEnabled = true
