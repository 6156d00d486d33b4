package vmi

import (
	"sync"
	"testing"
	"time"
)

// TestDelayZeroLatencyFastPath: zero-latency frames are forwarded
// synchronously on the caller's goroutine with nothing queued.
func TestDelayZeroLatencyFastPath(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return 0 })
	defer d.Close()
	delivered := false
	chain := BuildSendChain(func(f *Frame) error { delivered = true; return nil }, d)
	if err := chain(&Frame{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("zero-latency frame was not delivered synchronously")
	}
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d after synchronous delivery", d.Pending())
	}
}

// TestDelayCloseDrainsQueuedFrames: Close with frames still held releases
// every one of them, in due order, even while senders race the shutdown.
func TestDelayCloseDrainsQueuedFrames(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return time.Hour })
	var mu sync.Mutex
	var delivered int
	sink := func(f *Frame) error {
		mu.Lock()
		delivered++
		mu.Unlock()
		return nil
	}
	chain := BuildSendChain(sink, d)

	const senders, perSender = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := chain(&Frame{Src: int32(s), Dst: 9, Seq: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if d.Pending() != senders*perSender {
		t.Fatalf("Pending = %d, want %d", d.Pending(), senders*perSender)
	}
	d.Close()
	mu.Lock()
	defer mu.Unlock()
	if delivered != senders*perSender {
		t.Errorf("Close delivered %d frames, want %d", delivered, senders*perSender)
	}
}

// TestDelayCloseRaceWithSenders: senders still running while Close happens
// lose nothing — every frame is delivered either by the timer loop, the
// Close drain, or the post-Close synchronous path.
func TestDelayCloseRaceWithSenders(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return time.Millisecond })
	var delivered sync.Map
	sink := func(f *Frame) error {
		delivered.Store([2]int64{int64(f.Src), int64(f.Seq)}, true)
		return nil
	}
	chain := BuildSendChain(sink, d)

	const senders, perSender = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := chain(&Frame{Src: int32(s), Dst: 9, Seq: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Close in the middle of the send storm.
	time.Sleep(500 * time.Microsecond)
	d.Close()
	wg.Wait()
	count := 0
	delivered.Range(func(any, any) bool { count++; return true })
	if count != senders*perSender {
		t.Errorf("delivered %d distinct frames, want %d", count, senders*perSender)
	}
}

// fixedClock is a swappable time source for the delay device's unexported
// now hook.
type fixedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fixedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fixedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// setClock swaps the device's time source under its lock (the release loop
// reads now while holding it).
func setClock(d *DelayDevice, c *fixedClock) {
	d.mu.Lock()
	d.now = c.now
	d.mu.Unlock()
}

// TestDelayWakesOnlyForNewHead: the release loop is woken when a held frame
// becomes the earliest due, and not otherwise. The device is assembled
// without its loop so that the wake channel can be read like a counter.
func TestDelayWakesOnlyForNewHead(t *testing.T) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	d := &DelayDevice{wake: make(chan struct{}, 1), done: make(chan struct{}), now: clk.now}
	next := func(*Frame) error { return nil }
	hold := func(delay time.Duration) {
		t.Helper()
		if err := d.Hold(&Frame{}, next, delay); err != nil {
			t.Fatal(err)
		}
	}
	woken := func() bool {
		select {
		case <-d.wake:
			return true
		default:
			return false
		}
	}

	hold(10 * time.Millisecond)
	if !woken() {
		t.Fatal("first hold did not wake the loop")
	}
	// The constant-latency case: later sends fall due later, or — the clock
	// not having moved — at the same instant behind the tick tie-break.
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			clk.advance(time.Microsecond)
		}
		hold(10 * time.Millisecond)
		if woken() {
			t.Fatalf("in-order hold %d woke the loop", i)
		}
	}
	hold(time.Millisecond)
	if !woken() {
		t.Fatal("an earlier-due hold did not wake the loop")
	}
	if d.Pending() != 102 {
		t.Fatalf("Pending = %d, want 102", d.Pending())
	}
}

// TestDelayEarlierHoldPreemptsArmedTimer: with the loop asleep on a distant
// head, a hold that falls due sooner is still released on time.
func TestDelayEarlierHoldPreemptsArmedTimer(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return time.Hour })
	defer d.Close()
	clk := &fixedClock{t: time.Unix(1000, 0)}
	setClock(d, clk)

	released := make(chan uint64, 2)
	next := func(f *Frame) error { released <- f.Seq; return nil }
	if err := d.Send(&Frame{Seq: 1}, next); err != nil { // held for an hour
		t.Fatal(err)
	}
	waitFor(t, "loop asleep on the distant head", func() bool { return len(d.wake) == 0 })
	if err := d.Hold(&Frame{Seq: 2}, next, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Millisecond)
	select {
	case seq := <-released:
		if seq != 2 {
			t.Fatalf("released frame %d, want 2", seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("earlier-due frame not released: the loop slept through it on the first frame's timer")
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want the hour-long hold still queued", d.Pending())
	}
}

// TestDelayEqualDueTimeFIFO: frames sharing one due time are released in
// exact insertion order (the tick tie-break), pinned with a frozen clock
// so every frame genuinely collides on the same instant.
func TestDelayEqualDueTimeFIFO(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return 10 * time.Millisecond })
	defer d.Close()
	clk := &fixedClock{t: time.Unix(1000, 0)}
	setClock(d, clk)

	var mu sync.Mutex
	var got []uint64
	chain := BuildSendChain(func(f *Frame) error {
		mu.Lock()
		got = append(got, f.Seq)
		mu.Unlock()
		return nil
	}, d)

	const n = 200
	for i := 0; i < n; i++ {
		if err := chain(&Frame{Src: 0, Dst: 9, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Pending() != n {
		t.Fatalf("Pending = %d with frozen clock, want %d", d.Pending(), n)
	}
	clk.advance(20 * time.Millisecond) // all n frames fall due at once
	waitFor(t, "all frames released", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("release order broke FIFO at %d: got seq %d", i, seq)
		}
	}
}

// TestDelayEqualDueTimeFIFOPerSender: with concurrent senders colliding on
// one due time, the global release order is some interleaving, but each
// sender's frames stay in that sender's order.
func TestDelayEqualDueTimeFIFOPerSender(t *testing.T) {
	d := NewDelayDevice(func(src, dst int32) time.Duration { return 10 * time.Millisecond })
	defer d.Close()
	clk := &fixedClock{t: time.Unix(1000, 0)}
	setClock(d, clk)

	var mu sync.Mutex
	perSender := make(map[int32][]uint64)
	chain := BuildSendChain(func(f *Frame) error {
		mu.Lock()
		perSender[f.Src] = append(perSender[f.Src], f.Seq)
		mu.Unlock()
		return nil
	}, d)

	const senders, each = 6, 80
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := chain(&Frame{Src: int32(s), Dst: 9, Seq: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	clk.advance(time.Minute)
	waitFor(t, "all frames released", func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, seqs := range perSender {
			total += len(seqs)
		}
		return total == senders*each
	})
	mu.Lock()
	defer mu.Unlock()
	for s, seqs := range perSender {
		for i, seq := range seqs {
			if seq != uint64(i) {
				t.Fatalf("sender %d released out of order at %d: seq %d", s, i, seq)
			}
		}
	}
}
