package vmi

import "fmt"

// SendFunc advances a frame toward delivery: either the next device in a
// send chain or the terminal delivery function.
type SendFunc func(*Frame) error

// RecvFunc advances a received frame toward the local scheduler: either
// the next device in a receive chain or the terminal enqueue function.
type RecvFunc func(*Frame) error

// SendDevice is one stage of a send chain. A device may deliver the frame
// itself (never calling next), transform it and pass it on, or hold it and
// call next later.
//
// A device borrows the frame for the duration of its Send call and no
// longer: once Send returns, the caller may recycle the frame and its
// body (the reliability layer returns both to pools when an ack frees
// them). A device that keeps a frame past Send — to release it later,
// reorder or duplicate it — clones it first, as FaultDevice does. The
// delay device is the one stage that takes ownership instead: DelayDevice
// holds the very frame it is given, so whoever hands it a frame gives that
// frame up until the device calls next with it.
type SendDevice interface {
	Name() string
	Send(f *Frame, next SendFunc) error
}

// RecvDevice is one stage of a receive chain, mirroring SendDevice.
type RecvDevice interface {
	Name() string
	Recv(f *Frame, next RecvFunc) error
}

// BuildSendChain composes devices into a single SendFunc. devs[0] sees the
// frame first; terminal runs last. A nil terminal yields an error sink so
// misconfigured chains fail loudly instead of dropping frames.
func BuildSendChain(terminal SendFunc, devs ...SendDevice) SendFunc {
	next := terminal
	if next == nil {
		next = func(f *Frame) error { return fmt.Errorf("vmi: send chain has no terminal for %v", f) }
	}
	for i := len(devs) - 1; i >= 0; i-- {
		dev, downstream := devs[i], next
		next = func(f *Frame) error { return dev.Send(f, downstream) }
	}
	return next
}

// BuildRecvChain composes devices into a single RecvFunc. devs[0] sees the
// frame first; terminal runs last.
func BuildRecvChain(terminal RecvFunc, devs ...RecvDevice) RecvFunc {
	next := terminal
	if next == nil {
		next = func(f *Frame) error { return fmt.Errorf("vmi: recv chain has no terminal for %v", f) }
	}
	for i := len(devs) - 1; i >= 0; i-- {
		dev, downstream := devs[i], next
		next = func(f *Frame) error { return dev.Recv(f, downstream) }
	}
	return next
}

// SendDeviceFunc adapts a function to the SendDevice interface.
type SendDeviceFunc struct {
	DeviceName string
	Fn         func(f *Frame, next SendFunc) error
}

// Name implements SendDevice.
func (d SendDeviceFunc) Name() string { return d.DeviceName }

// Send implements SendDevice.
func (d SendDeviceFunc) Send(f *Frame, next SendFunc) error { return d.Fn(f, next) }

// RecvDeviceFunc adapts a function to the RecvDevice interface.
type RecvDeviceFunc struct {
	DeviceName string
	Fn         func(f *Frame, next RecvFunc) error
}

// Name implements RecvDevice.
func (d RecvDeviceFunc) Name() string { return d.DeviceName }

// Recv implements RecvDevice.
func (d RecvDeviceFunc) Recv(f *Frame, next RecvFunc) error { return d.Fn(f, next) }
