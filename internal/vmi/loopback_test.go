package vmi

import (
	"errors"
	"testing"
	"time"
)

func TestLoopbackDelivers(t *testing.T) {
	var got *Frame
	lb := NewLoopback(func(f *Frame) error { got = f; return nil })
	if lb.Name() == "" {
		t.Error("empty device name")
	}
	f := &Frame{Src: 1, Dst: 2}
	// Send never calls next.
	err := lb.Send(f, func(*Frame) error { return errors.New("next must not be called") })
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Error("frame not delivered")
	}
	// Terminal form is usable as a chain terminal.
	got = nil
	chain := BuildSendChain(lb.Terminal())
	if err := chain(f); err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Error("terminal did not deliver")
	}
}

func TestDeviceFuncAdaptersAndNames(t *testing.T) {
	var hits int
	sd := SendDeviceFunc{DeviceName: "s", Fn: func(f *Frame, next SendFunc) error { hits++; return next(f) }}
	rd := RecvDeviceFunc{DeviceName: "r", Fn: func(f *Frame, next RecvFunc) error { hits++; return next(f) }}
	if sd.Name() != "s" || rd.Name() != "r" {
		t.Error("adapter names wrong")
	}
	send := BuildSendChain(func(*Frame) error { return nil }, sd)
	recv := BuildRecvChain(func(*Frame) error { return nil }, rd)
	if err := send(&Frame{}); err != nil {
		t.Fatal(err)
	}
	if err := recv(&Frame{}); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("adapters hit %d times", hits)
	}
	// Exercise device names used in diagnostics.
	d := NewDelayDevice(func(int32, int32) time.Duration { return 0 })
	defer d.Close()
	if d.Name() == "" {
		t.Error("device with empty name")
	}
}
