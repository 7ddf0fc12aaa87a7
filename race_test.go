//go:build race

package eos

// raceEnabled reports whether the race detector instruments this build:
// it adds allocations of its own to some paths TestAllocsPerOp pins.
const raceEnabled = true
