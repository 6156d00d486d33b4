package vmi

import (
	"sync"
	"testing"
	"time"
)

func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) SendDevice {
		return funcDevice{name: name, fn: func(f *Frame, next SendFunc) error {
			order = append(order, name)
			return next(f)
		}}
	}
	var delivered bool
	chain := BuildSendChain(func(*Frame) error { delivered = true; return nil }, mk("a"), mk("b"), mk("c"))
	if err := chain(&Frame{}); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("terminal not reached")
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestChainNilTerminalErrors(t *testing.T) {
	chain := BuildSendChain(nil)
	if err := chain(&Frame{}); err == nil {
		t.Error("nil-terminal chain delivered silently")
	}
}

// funcDevice adapts a function to SendDevice.
type funcDevice struct {
	name string
	fn   func(f *Frame, next SendFunc) error
}

func (d funcDevice) Name() string                       { return d.name }
func (d funcDevice) Send(f *Frame, next SendFunc) error { return d.fn(f, next) }

func TestDeviceFuncAdaptersAndNames(t *testing.T) {
	var hits int
	sd := funcDevice{name: "s", fn: func(f *Frame, next SendFunc) error { hits++; return next(f) }}
	if sd.Name() != "s" {
		t.Error("adapter name wrong")
	}
	send := BuildSendChain(func(*Frame) error { return nil }, sd)
	if err := send(&Frame{}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Errorf("adapter hit %d times", hits)
	}
	// Exercise device names used in diagnostics.
	d := NewDelayDevice(func(int32, int32) time.Duration { return 0 })
	defer d.Close()
	if d.Name() == "" {
		t.Error("device with empty name")
	}
}

func TestDelayDeviceZeroLatencyIsSynchronous(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return 0 })
	defer d.Close()
	var got *Frame
	f := &Frame{Src: 0, Dst: 1}
	if err := d.Send(f, func(g *Frame) error { got = g; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Error("zero-latency frame was not delivered synchronously")
	}
	if d.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", d.Pending())
	}
}

func TestDelayDeviceDelays(t *testing.T) {
	const lat = 30 * time.Millisecond
	d := NewDelayDevice(func(src, dst int32) time.Duration { return lat })
	defer d.Close()

	done := make(chan time.Time, 1)
	start := time.Now()
	err := d.Send(&Frame{Src: 0, Dst: 1}, func(*Frame) error {
		done <- time.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-done:
		if el := at.Sub(start); el < lat {
			t.Errorf("delivered after %v, want >= %v", el, lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame never delivered")
	}
}

func TestDelayDevicePreservesFIFO(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return 5 * time.Millisecond })
	defer d.Close()

	const n = 100
	var mu sync.Mutex
	var got []uint64
	deliver := func(f *Frame) error {
		mu.Lock()
		got = append(got, f.Obj.(uint64))
		mu.Unlock()
		return nil
	}
	for i := 0; i < n; i++ {
		if err := d.Send(&Frame{Src: 0, Dst: 1, Obj: uint64(i)}, deliver); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		k := len(got)
		mu.Unlock()
		if k == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d delivered", k, n)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("delivery order broken at %d: %v", i, got[:i+1])
		}
	}
}

func TestDelayDeviceCloseDrains(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return time.Hour })
	var mu sync.Mutex
	var n int
	for i := 0; i < 10; i++ {
		_ = d.Send(&Frame{Obj: uint64(i)}, func(*Frame) error {
			mu.Lock()
			n++
			mu.Unlock()
			return nil
		})
	}
	if d.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", d.Pending())
	}
	d.Close()
	if n != 10 {
		t.Errorf("Close drained %d frames, want 10", n)
	}
	// Idempotent close and post-close sends pass through.
	d.Close()
	var through bool
	_ = d.Send(&Frame{}, func(*Frame) error { through = true; return nil })
	if !through {
		t.Error("post-close send did not pass through")
	}
}
