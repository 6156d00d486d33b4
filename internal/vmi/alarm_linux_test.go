package vmi

import (
	"os"
	"testing"
	"time"
)

// timerfds counts this process's open timerfd descriptors.
func timerfds(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if link, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && link == "anon_inode:[timerfd]" {
			n++
		}
	}
	return n
}

// TestDelayAlarmDescriptor: the device opens its timerfd on the first
// positive hold and not before, and Close gives it back — 500 devices
// leave the descriptor table as they found it.
func TestDelayAlarmDescriptor(t *testing.T) {
	before := timerfds(t)
	next := func(*Frame) error { return nil }

	idle := NewDelayDevice(func(int32, int32) time.Duration { return 0 })
	for i := 0; i < 10; i++ {
		if err := idle.Send(&Frame{}, next); err != nil {
			t.Fatal(err)
		}
	}
	if n := timerfds(t); n != before {
		t.Errorf("zero-delay holds opened %d timerfd(s)", n-before)
	}
	idle.Close()

	for i := 0; i < 500; i++ {
		d := NewDelayDevice(func(int32, int32) time.Duration { return time.Hour })
		if err := d.Send(&Frame{}, next); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.alarm.(*fdAlarm); !ok {
			d.Close()
			t.Skip("the kernel gave no timerfd; the device fell back to the runtime timer")
		}
		if i == 0 {
			if n := timerfds(t); n != before+1 {
				t.Errorf("one armed device holds %d timerfds, want 1", n-before)
			}
		}
		d.Close()
		d.Close() // idempotent: must not close a recycled descriptor number
	}
	if n := timerfds(t); n != before {
		t.Errorf("%d timerfd(s) leaked over 500 open/close cycles", n-before)
	}
}
