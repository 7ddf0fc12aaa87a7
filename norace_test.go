//go:build !race

package eos

const raceEnabled = false
