//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a quarter of its
// Puts at random, so a recycled Message is reallocated that often.
const raceEnabled = true
