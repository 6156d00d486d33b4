package vmi

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/metrics"
)

// latencyFn is NewDelayDevice's argument.
type latencyFn = func(src, dst int32) time.Duration

// eachAlarm runs a device test once per alarm backend: the platform's (a
// timerfd on Linux) and the portable runtime timer, which is otherwise
// only built into the device where CI does not run.
func eachAlarm(t *testing.T, test func(t *testing.T, newDelay func(latencyFn) *DelayDevice)) {
	for _, b := range []struct {
		name string
		mk   func() alarm
	}{{"platform", newAlarm}, {"timer", newTimerAlarm}} {
		b := b
		t.Run(b.name, func(t *testing.T) {
			test(t, func(lat latencyFn) *DelayDevice {
				d := NewDelayDevice(lat)
				d.newAlarm = b.mk
				return d
			})
		})
	}
}

// TestDelayZeroLatencyFastPath: zero-latency frames are forwarded
// synchronously on the caller's goroutine with nothing queued, and the
// device never opens its alarm or starts its release goroutine.
func TestDelayZeroLatencyFastPath(t *testing.T) {
	eachAlarm(t, testDelayZeroLatencyFastPath)
}

func testDelayZeroLatencyFastPath(t *testing.T, newDelay func(latencyFn) *DelayDevice) {
	d := newDelay(func(src, dst int32) time.Duration { return 0 })
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
	if d.alarm != nil {
		t.Fatal("a zero-delay hold opened the alarm")
	}
}

// TestDelayCloseDrainsQueuedFrames: Close with frames still held releases
// every one of them, in due order, even while senders race the shutdown.
func TestDelayCloseDrainsQueuedFrames(t *testing.T) { eachAlarm(t, testDelayCloseDrainsQueuedFrames) }

func testDelayCloseDrainsQueuedFrames(t *testing.T, newDelay func(latencyFn) *DelayDevice) {
	d := newDelay(func(src, dst int32) time.Duration { return time.Hour })
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
func TestDelayCloseRaceWithSenders(t *testing.T) { eachAlarm(t, testDelayCloseRaceWithSenders) }

func testDelayCloseRaceWithSenders(t *testing.T, newDelay func(latencyFn) *DelayDevice) {
	d := newDelay(func(src, dst int32) time.Duration { return time.Millisecond })
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

// fakeAlarm records every arm and fires only when the test says so.
type fakeAlarm struct {
	mu   sync.Mutex
	arms []time.Duration
	c    chan struct{}
	done chan struct{}
}

func newFakeAlarm() *fakeAlarm {
	return &fakeAlarm{c: make(chan struct{}), done: make(chan struct{})}
}

func (a *fakeAlarm) arm(d time.Duration) {
	a.mu.Lock()
	a.arms = append(a.arms, d)
	a.mu.Unlock()
}

func (a *fakeAlarm) wait() bool {
	select {
	case <-a.c:
		return true
	case <-a.done:
		return false
	}
}

func (a *fakeAlarm) close() { close(a.done) }

// fire wakes the release loop once; it returns when the loop has taken the
// wake-up, not when the pass is over.
func (a *fakeAlarm) fire() { a.c <- struct{}{} }

func (a *fakeAlarm) armed() []time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]time.Duration(nil), a.arms...)
}

// newFakeDelay builds a device on a fake clock and a recording alarm.
func newFakeDelay(lat latencyFn) (*DelayDevice, *fixedClock, *fakeAlarm) {
	clk := &fixedClock{t: time.Unix(1000, 0)}
	a := newFakeAlarm()
	d := NewDelayDevice(lat)
	d.now = clk.now
	d.newAlarm = func() alarm { return a }
	return d, clk, a
}

// headDueIn is what the alarm must be armed for: the head's due time less
// the clock's now.
func headDueIn(d *DelayDevice, clk *fixedClock) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pq.peek().due.Sub(clk.now())
}

// TestDelayWakesOnlyForNewHead: the alarm is re-armed when a held frame
// becomes the earliest due — for exactly the time until it is due — and not
// otherwise.
func TestDelayWakesOnlyForNewHead(t *testing.T) {
	d, clk, a := newFakeDelay(nil)
	defer d.Close()
	next := func(*Frame) error { return nil }
	hold := func(delay time.Duration) {
		t.Helper()
		if err := d.Hold(&Frame{}, next, delay); err != nil {
			t.Fatal(err)
		}
	}

	hold(10 * time.Millisecond)
	if got := a.armed(); len(got) != 1 || got[0] != 10*time.Millisecond {
		t.Fatalf("first hold armed %v, want [10ms]", got)
	}
	// The constant-latency case: later sends fall due later, or — the clock
	// not having moved — at the same instant behind the tick tie-break.
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			clk.advance(time.Microsecond)
		}
		hold(10 * time.Millisecond)
		if n := len(a.armed()); n != 1 {
			t.Fatalf("in-order hold %d re-armed the alarm", i)
		}
	}
	hold(time.Millisecond)
	got := a.armed()
	if len(got) != 2 {
		t.Fatalf("an earlier-due hold did not re-arm the alarm: %v", got)
	}
	if want := headDueIn(d, clk); got[1] != want || want != time.Millisecond {
		t.Fatalf("armed for %v, head due in %v, want 1ms", got[1], want)
	}
	if d.Pending() != 102 {
		t.Fatalf("Pending = %d, want 102", d.Pending())
	}
}

// TestDelayEarlierHoldPreemptsArmedTimer: with the alarm armed for a distant
// head, a hold that falls due sooner takes the alarm over, is released when
// it fires, and leaves the alarm armed for the remainder of the first.
func TestDelayEarlierHoldPreemptsArmedTimer(t *testing.T) {
	d, clk, a := newFakeDelay(func(src, dst int32) time.Duration { return time.Hour })
	defer d.Close()

	released := make(chan uint64, 2)
	next := func(f *Frame) error { released <- f.Seq; return nil }
	if err := d.Send(&Frame{Seq: 1}, next); err != nil { // held for an hour
		t.Fatal(err)
	}
	if err := d.Hold(&Frame{Seq: 2}, next, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := a.armed(); len(got) != 2 || got[0] != time.Hour || got[1] != time.Millisecond {
		t.Fatalf("armed %v, want [1h 1ms]", got)
	}
	clk.advance(2 * time.Millisecond)
	a.fire()
	if seq := <-released; seq != 2 {
		t.Fatalf("released frame %d, want 2", seq)
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want the hour-long hold still queued", d.Pending())
	}
	got := a.armed()
	if want := headDueIn(d, clk); len(got) != 3 || got[2] != want || want != time.Hour-2*time.Millisecond {
		t.Fatalf("after the release armed %v, head due in %v", got, want)
	}
}

// TestDelayEarlierHoldReleasedFirst is the same preemption on the real
// alarms: re-arming one that is already counting down a longer wait must
// shorten the wait.
func TestDelayEarlierHoldReleasedFirst(t *testing.T) {
	eachAlarm(t, func(t *testing.T, newDelay func(latencyFn) *DelayDevice) {
		d := newDelay(func(src, dst int32) time.Duration { return time.Hour })
		defer d.Close()
		released := make(chan uint64, 2)
		next := func(f *Frame) error { released <- f.Seq; return nil }
		if err := d.Send(&Frame{Seq: 1}, next); err != nil { // held for an hour
			t.Fatal(err)
		}
		if err := d.Hold(&Frame{Seq: 2}, next, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		select {
		case seq := <-released:
			if seq != 2 {
				t.Fatalf("released frame %d, want 2", seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("earlier-due frame not released: the loop slept through it on the first frame's alarm")
		}
		if d.Pending() != 1 {
			t.Fatalf("Pending = %d, want the hour-long hold still queued", d.Pending())
		}
	})
}

// TestDelayLatenessHistogram: an instrumented device records release time
// less due time per frame, from the one clock reading a release pass takes
// anyway — instrumented or not, a pass reads the clock once.
func TestDelayLatenessHistogram(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		d, clk, a := newFakeDelay(nil)
		reads := 0
		d.now = func() time.Time { reads++; return clk.now() } // under d.mu in Hold and loop
		reg := metrics.NewRegistry()
		if instrumented {
			d.Instrument(reg)
		}
		released := make(chan struct{}, 3)
		next := func(*Frame) error { released <- struct{}{}; return nil }
		for _, delay := range []time.Duration{time.Millisecond, 2 * time.Millisecond, time.Hour} {
			if err := d.Hold(&Frame{}, next, delay); err != nil {
				t.Fatal(err)
			}
		}
		clk.advance(2*time.Millisecond + 300*time.Microsecond)
		a.fire()
		<-released
		<-released
		d.Close() // joins the loop: reads is safe to read
		if reads != 3+1 {
			t.Errorf("instrumented=%v: %d clock reads for three holds and one release pass, want 4", instrumented, reads)
		}
		if !instrumented {
			continue
		}
		h := reg.Histogram("vmi_delay_late_ns", metrics.DurationBuckets)
		// 1.3 ms and 0.3 ms late; the hour-long hold is released by Close, on
		// no schedule, and is not an observation.
		if h.Count() != 2 || h.Sum() != int64(1600*time.Microsecond) {
			t.Errorf("lateness count %d sum %d ns, want 2 and 1600000", h.Count(), h.Sum())
		}
	}
}

// TestDelayEqualDueTimeFIFO: frames sharing one due time are released in
// exact insertion order (the tick tie-break), pinned with a frozen clock
// so every frame genuinely collides on the same instant.
func TestDelayEqualDueTimeFIFO(t *testing.T) { eachAlarm(t, testDelayEqualDueTimeFIFO) }

func testDelayEqualDueTimeFIFO(t *testing.T, newDelay func(latencyFn) *DelayDevice) {
	d := newDelay(func(src, dst int32) time.Duration { return 10 * time.Millisecond })
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
	eachAlarm(t, testDelayEqualDueTimeFIFOPerSender)
}

func testDelayEqualDueTimeFIFOPerSender(t *testing.T, newDelay func(latencyFn) *DelayDevice) {
	d := newDelay(func(src, dst int32) time.Duration { return 10 * time.Millisecond })
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

// TestDelayHeapOrder: the typed heap pops in (due, tick) order however
// pushes and pops interleave, with many frames sharing a due time.
func TestDelayHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(0, 0)
	var h delayHeap
	var tick uint64
	var last delayedFrame
	popped := 0
	check := func() {
		df := h.pop()
		if popped > 0 && (df.due.Before(last.due) || df.due.Equal(last.due) && df.tick < last.tick) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", popped, df.due, df.tick, last.due, last.tick)
		}
		last = df
		popped++
	}
	for i := 0; i < 2000; i++ {
		if len(h) > 0 && rng.Intn(3) == 0 {
			check()
			continue
		}
		tick++
		// Due times at or after the last pop, so the popped sequence must
		// be sorted; 16 distinct values make ties common.
		due := last.due.Add(time.Duration(rng.Intn(16)) * time.Millisecond)
		if popped == 0 {
			due = base.Add(time.Duration(rng.Intn(16)) * time.Millisecond)
		}
		h.push(delayedFrame{due: due, tick: tick})
	}
	for len(h) > 0 {
		check()
	}
	if popped != int(tick) {
		t.Fatalf("popped %d of %d frames", popped, tick)
	}
}
