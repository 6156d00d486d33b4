package vmi

import (
	"container/heap"
	"math/rand"
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
	wake    chan struct{}
	done    chan struct{}
	stopped bool
	wg      sync.WaitGroup

	// sleep is swappable for tests; defaults to a timer-based wait.
	now func() time.Time
}

type delayedFrame struct {
	due  time.Time
	tick uint64
	f    *Frame
	next SendFunc
}

type delayHeap []delayedFrame

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].tick < h[j].tick
}
func (h delayHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)        { *h = append(*h, x.(delayedFrame)) }
func (h *delayHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h delayHeap) peek() delayedFrame { return h[0] }

// NewDelayDevice builds a delay device whose per-frame latency is computed
// by latencyFor(src, dst). A zero latency passes the frame through
// synchronously with no goroutine hand-off, so intra-cluster traffic pays
// nothing for the instrumentation.
func NewDelayDevice(latencyFor func(src, dst int32) time.Duration) *DelayDevice {
	d := &DelayDevice{
		latencyFor: latencyFor,
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		now:        time.Now,
	}
	d.wg.Add(1)
	go d.loop()
	return d
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
// top of this.
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
	d.tick++
	heap.Push(&d.pq, delayedFrame{due: d.now().Add(delay), tick: d.tick, f: f, next: next})
	if len(d.pq) > d.hw {
		d.hw = len(d.pq)
	}
	// The loop sleeps until the head falls due, so only a frame that became
	// the head changes what it waits for. Holds of one constant latency
	// arrive in due order and never do: the link fills without a wake-up,
	// a goroutine switch and a timer re-arm per frame.
	newHead := d.pq[0].tick == d.tick
	d.mu.Unlock()
	if newHead {
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
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

// Instrument registers the device's occupancy gauges on reg.
func (d *DelayDevice) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("vmi_delay_occupancy", func() int64 { return int64(d.Pending()) }, labels...)
	reg.GaugeFunc("vmi_delay_occupancy_high_water", func() int64 { return int64(d.HighWater()) }, labels...)
}

// Close releases all still-held frames immediately (preserving order) and
// stops the timer goroutine. It is idempotent.
func (d *DelayDevice) Close() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	var drained []delayedFrame
	for d.pq.Len() > 0 {
		drained = append(drained, heap.Pop(&d.pq).(delayedFrame))
	}
	d.mu.Unlock()
	close(d.done)
	d.wg.Wait()
	for _, df := range drained {
		_ = df.next(df.f)
	}
}

func (d *DelayDevice) loop() {
	defer d.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		d.mu.Lock()
		var wait time.Duration = -1
		var ready []delayedFrame
		for d.pq.Len() > 0 {
			head := d.pq.peek()
			untl := head.due.Sub(d.now())
			if untl > 0 {
				wait = untl
				break
			}
			ready = append(ready, heap.Pop(&d.pq).(delayedFrame))
		}
		d.mu.Unlock()

		for _, df := range ready {
			_ = df.next(df.f)
		}
		if len(ready) > 0 {
			continue // re-examine the heap before sleeping
		}

		if wait < 0 {
			select {
			case <-d.wake:
			case <-d.done:
				return
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-d.wake:
		case <-d.done:
			return
		}
	}
}

// JitteredLatency wraps a latency function with seeded pseudo-random
// jitter: each frame's delay is drawn uniformly from
// [base·(1−frac), base·(1+frac)]. Zero base latencies stay zero, so
// intra-cluster traffic is unaffected. The returned function is safe for
// concurrent use and deterministic for a given seed and call sequence.
func JitteredLatency(base func(src, dst int32) time.Duration, frac float64, seed int64) func(src, dst int32) time.Duration {
	if frac < 0 {
		frac = 0
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(src, dst int32) time.Duration {
		b := base(src, dst)
		if b <= 0 || frac == 0 {
			return b
		}
		mu.Lock()
		u := rng.Float64()
		mu.Unlock()
		scale := 1 - frac + 2*frac*u
		return time.Duration(float64(b) * scale)
	}
}
