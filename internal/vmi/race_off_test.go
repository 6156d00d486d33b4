//go:build !race

package vmi

const raceEnabled = false
