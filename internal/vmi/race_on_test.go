//go:build race

package vmi

// raceEnabled: the race detector makes sync.Pool drop a share of Puts at
// random, so pool-reuse allocation pins cannot hold under it.
const raceEnabled = true
