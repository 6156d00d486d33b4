package vmi

import (
	"sync"
	"testing"
	"time"
)

func TestJitteredLatencyBounds(t *testing.T) {
	base := func(src, dst int32) time.Duration {
		if src == dst {
			return 0
		}
		return 10 * time.Millisecond
	}
	j := JitteredLatency(base, 0.2, 42)
	for i := 0; i < 200; i++ {
		d := j(0, 1)
		if d < 8*time.Millisecond || d > 12*time.Millisecond {
			t.Fatalf("jittered latency %v outside [8ms,12ms]", d)
		}
	}
	// Zero base stays zero.
	if d := j(3, 3); d != 0 {
		t.Errorf("zero base jittered to %v", d)
	}
	// Deterministic for a given seed.
	a := JitteredLatency(base, 0.5, 7)
	b := JitteredLatency(base, 0.5, 7)
	for i := 0; i < 50; i++ {
		if a(0, 1) != b(0, 1) {
			t.Fatal("jitter not deterministic per seed")
		}
	}
	// Negative fraction is clamped; zero fraction passes through.
	c := JitteredLatency(base, -1, 1)
	if c(0, 1) != 10*time.Millisecond {
		t.Error("negative fraction not clamped")
	}
}

func TestJitteredLatencyConcurrentSafe(t *testing.T) {
	j := JitteredLatency(func(int32, int32) time.Duration { return time.Millisecond }, 0.3, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = j(0, 1)
			}
		}()
	}
	wg.Wait()
}

func TestDelayDeviceHoldExplicit(t *testing.T) {
	d := NewDelayDevice(func(int32, int32) time.Duration { return time.Hour })
	defer d.Close()
	var hit bool
	// Hold with zero delay bypasses the (huge) configured latency.
	if err := d.Hold(&Frame{}, func(*Frame) error { hit = true; return nil }, 0); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("zero-delay Hold did not deliver synchronously")
	}
}
