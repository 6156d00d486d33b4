//go:build !linux

package vmi

// newAlarm is the platform's alarm: without a pollable kernel timer, the
// runtime's.
func newAlarm() alarm { return newTimerAlarm() }
