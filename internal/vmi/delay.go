package vmi

import (
	"sync"
	"time"

	"gridmdo/internal/metrics"
)

// DelayDevice reproduces the paper's key experimental instrument: a device
// interposed in a send chain that holds each frame for a configured,
// per-(src,dst)-pair latency before passing it to the next device. With a
// subset of PEs "affiliated" to the fast path (latency zero) and the rest
// behind a delay, a single physical machine behaves like two clusters
// joined by a wide-area link.
//
// Frames with equal due times are released in send order (Seq tie-break),
// so the device preserves point-to-point FIFO for constant latencies.
type DelayDevice struct {
	latencyFor func(src, dst int32) time.Duration

	mu      sync.Mutex
	pq      delayHeap
	hw      int    // occupancy high-water mark
	tick    uint64 // insertion order tie-break
	stopped bool
	// alarm is nil until the first positive hold: a device that only ever
	// passes frames through owns no descriptor and no goroutine. Once open it
	// is always armed for the head's due time (or idle with nothing held).
	alarm alarm
	late  *metrics.Histogram // release time − due time; nil unless instrumented
	wg    sync.WaitGroup

	// now and newAlarm are swappable for tests: a frozen clock pins due
	// times, a recording alarm counts arms.
	now      func() time.Time
	newAlarm func() alarm
}

// alarm is what the release loop sleeps on: one pending wake-up, re-armed
// as the head of the heap changes. The device serialises arm calls under
// its mutex and never arms after close; wait is called by the release loop
// alone. Waking early or twice is harmless (the loop re-examines the heap
// and re-arms), waking late is the error the device exists to avoid.
type alarm interface {
	// arm replaces any pending wake-up with one d from now.
	arm(d time.Duration)
	// wait blocks until the armed wake-up fires, or returns false once the
	// alarm is closed.
	wait() bool
	// close releases the alarm and unblocks wait.
	close()
}

// timerAlarm is the portable alarm, a runtime timer. When every P is idle
// the Go runtime sleeps in the netpoller with a timeout in whole
// milliseconds, so on an idle process it fires up to a millisecond late;
// it is the only alarm on platforms without a pollable kernel timer.
type timerAlarm struct {
	t    *time.Timer
	done chan struct{}
}

func newTimerAlarm() alarm {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerAlarm{t: t, done: make(chan struct{})}
}

// arm leaves a tick already in t.C where it is: wait returns early once and
// the loop arms again.
func (a *timerAlarm) arm(d time.Duration) { a.t.Reset(d) }

func (a *timerAlarm) wait() bool {
	select {
	case <-a.t.C:
		return true
	case <-a.done:
		return false
	}
}

func (a *timerAlarm) close() {
	a.t.Stop()
	close(a.done)
}

type delayedFrame struct {
	due  time.Time
	tick uint64
	f    *Frame
	next SendFunc
}

// delayHeap is a binary min-heap of held frames ordered by due time, then
// by tick. It is typed rather than built on container/heap, whose Push and
// Pop box every element in an interface: an allocation per held frame.
type delayHeap []delayedFrame

func (h delayHeap) less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].tick < h[j].tick
}

func (h delayHeap) peek() delayedFrame { return h[0] }

// push adds df and restores the heap order.
func (h *delayHeap) push(df delayedFrame) {
	*h = append(*h, df)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the head. The vacated slot is cleared so the
// backing array keeps no frame alive.
func (h *delayHeap) pop() delayedFrame {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = delayedFrame{}
	q = q[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && q.less(l, least) {
			least = l
		}
		if r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// NewDelayDevice builds a delay device whose per-frame latency is computed
// by latencyFor(src, dst). A zero latency passes the frame through
// synchronously with no goroutine hand-off, so intra-cluster traffic pays
// nothing for the instrumentation.
func NewDelayDevice(latencyFor func(src, dst int32) time.Duration) *DelayDevice {
	return &DelayDevice{latencyFor: latencyFor, now: time.Now, newAlarm: newAlarm}
}

// Name implements SendDevice.
func (d *DelayDevice) Name() string { return "delay" }

// Send implements SendDevice. The frame is either forwarded immediately
// (zero latency) or scheduled for release after the configured delay.
func (d *DelayDevice) Send(f *Frame, next SendFunc) error {
	return d.Hold(f, next, d.latencyFor(f.Src, f.Dst))
}

// Hold schedules a frame for release after an explicit delay, bypassing
// the device's latency function. Devices that compute per-frame delays
// from their own state (FaultDevice's jitter and reordering) compose on
// top of this. The device owns f until it calls next with it (see
// SendDevice): a caller that may recycle f hands over a clone.
func (d *DelayDevice) Hold(f *Frame, next SendFunc, delay time.Duration) error {
	if delay <= 0 {
		return next(f)
	}
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		// Deliver synchronously during shutdown rather than dropping.
		return next(f)
	}
	if d.alarm == nil {
		d.alarm = d.newAlarm()
		d.wg.Add(1)
		go d.loop(d.alarm)
	}
	d.tick++
	d.pq.push(delayedFrame{due: d.now().Add(delay), tick: d.tick, f: f, next: next})
	if len(d.pq) > d.hw {
		d.hw = len(d.pq)
	}
	// The alarm is set for the head, so only a frame that became the head
	// changes it. Holds of one constant latency arrive in due order and
	// never do: the link fills without a re-arm and a wake-up per frame.
	if d.pq[0].tick == d.tick {
		d.alarm.arm(delay)
	}
	d.mu.Unlock()
	return nil
}

// Pending reports the number of frames currently held by the device.
func (d *DelayDevice) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pq)
}

// HighWater reports the peak number of frames held simultaneously — the
// occupancy of the modeled WAN link at its most congested.
func (d *DelayDevice) HighWater() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hw
}

// Instrument registers the device's occupancy gauges on reg, and a
// histogram of how long after its due time each frame was released: the
// error of the instrument itself.
func (d *DelayDevice) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("vmi_delay_occupancy", func() int64 { return int64(d.Pending()) }, labels...)
	reg.GaugeFunc("vmi_delay_occupancy_high_water", func() int64 { return int64(d.HighWater()) }, labels...)
	late := reg.Histogram("vmi_delay_late_ns", metrics.DurationBuckets, labels...)
	d.mu.Lock()
	d.late = late
	d.mu.Unlock()
}

// Close releases all still-held frames immediately (preserving order),
// stops the release goroutine and closes the alarm. It is idempotent.
func (d *DelayDevice) Close() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	var drained []delayedFrame
	for len(d.pq) > 0 {
		drained = append(drained, d.pq.pop())
	}
	a := d.alarm
	d.mu.Unlock()
	if a != nil {
		a.close()
		d.wg.Wait()
	}
	for _, df := range drained {
		_ = df.next(df.f)
	}
}

// loop releases frames as they fall due. Each pass takes the clock once,
// pops everything due, and sets the alarm for the new head before letting
// go of the lock, so a concurrent Hold always compares against an armed
// head. Close empties the heap first, so a pass that races it arms nothing.
func (d *DelayDevice) loop(a alarm) {
	defer d.wg.Done()
	var ready []delayedFrame
	for a.wait() {
		d.mu.Lock()
		now := d.now()
		for len(d.pq) > 0 {
			late := now.Sub(d.pq.peek().due)
			if late < 0 {
				a.arm(-late)
				break
			}
			d.late.Observe(int64(late))
			ready = append(ready, d.pq.pop())
		}
		d.mu.Unlock()

		for i, df := range ready {
			_ = df.next(df.f)
			ready[i] = delayedFrame{}
		}
		ready = ready[:0]
	}
}
