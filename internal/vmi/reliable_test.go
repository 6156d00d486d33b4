package vmi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/metrics"
)

func TestRelHeaderRoundTrip(t *testing.T) {
	cases := []RelHeader{
		{Kind: relKindData, Seq: 1, Ack: 0, CRC: 0xDEADBEEF},
		{Kind: relKindData, Seq: 1<<64 - 1, Ack: 1<<64 - 2, CRC: 0},
		{Kind: relKindAck, Seq: 0, Ack: 42, CRC: 7},
	}
	for _, h := range cases {
		payload := []byte("payload bytes")
		b := AppendRelHeader(nil, h)
		b = append(b, payload...)
		got, rest, err := DecodeRelHeader(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		if got != h {
			t.Errorf("round trip %+v -> %+v", h, got)
		}
		if !bytes.Equal(rest, payload) {
			t.Errorf("payload %q -> %q", payload, rest)
		}
	}
}

func TestRelHeaderDecodeErrors(t *testing.T) {
	good := AppendRelHeader(nil, RelHeader{Kind: relKindData, Seq: 1})
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", good[:relHeaderLen-1]},
		{"bad magic", append([]byte{0, 0, 0, 0}, good[4:]...)},
		{"unknown kind", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}()},
	}
	for _, tc := range cases {
		if _, _, err := DecodeRelHeader(tc.b); !errors.Is(err, ErrBadRelHeader) {
			t.Errorf("%s: err = %v, want ErrBadRelHeader", tc.name, err)
		}
	}
}

// relPair joins two ChainBuilder stacks, each with a reliability layer,
// over loopback TCP and captures the frames each delivers. PEs 0..1 live
// on node 0, PEs 2..3 on node 1.
type relPair struct {
	s0, s1 *Stack
	t0, t1 *TCP
	r0, r1 *Reliable

	mu         sync.Mutex
	got0, got1 []*Frame
}

// relEnd configures one end of a relPair: the reliability tuning, the
// fault devices below the layer, an optional metrics registry, and the
// failure handler bound with Stack.Bind (nil ignores budget exhaustion).
type relEnd struct {
	cfg    ReliableConfig
	send   []SendDevice
	recv   []RecvDevice
	reg    *metrics.Registry
	onFail func(error)
}

func newRelPair(t *testing.T, e0, e1 relEnd) *relPair {
	t.Helper()
	route := func(pe int32) int {
		if pe < 2 {
			return 0
		}
		return 1
	}
	p := &relPair{}
	build := func(node int, e relEnd, got *[]*Frame) *Stack {
		s, err := NewChainBuilder(node, map[int]string{node: "127.0.0.1:0"}, route).
			Metrics(e.reg).
			Reliable(e.cfg).
			Faults(e.send, e.recv).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		s.Bind(func(f *Frame) error {
			p.mu.Lock()
			*got = append(*got, f.Clone())
			p.mu.Unlock()
			return nil
		}, e.onFail)
		return s
	}
	p.s0, p.s1 = build(0, e0, &p.got0), build(1, e1, &p.got1)
	t.Cleanup(func() {
		p.s0.Close()
		p.s1.Close()
	})
	a0, err := p.s0.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.s1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	p.s0.SetAddr(1, a1)
	p.s1.SetAddr(0, a0)
	p.t0, p.r0 = p.s0.TCP(), p.s0.Reliable()
	p.t1, p.r1 = p.s1.TCP(), p.s1.Reliable()
	return p
}

func (p *relPair) at1() []*Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Frame(nil), p.got1...)
}

func (p *relPair) at0() []*Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Frame(nil), p.got0...)
}

// assertInOrder checks frames carry bodies "msg-0".."msg-(n-1)" in order,
// each exactly once.
func assertInOrder(t *testing.T, frames []*Frame, n int) {
	t.Helper()
	if len(frames) != n {
		t.Fatalf("delivered %d frames, want %d", len(frames), n)
	}
	for i, f := range frames {
		if want := fmt.Sprintf("msg-%d", i); string(f.Body) != want {
			t.Fatalf("frame %d body = %q, want %q", i, f.Body, want)
		}
		if f.Flags&FlagReliable != 0 {
			t.Fatalf("frame %d still carries FlagReliable", i)
		}
	}
}

func TestReliableLosslessDelivery(t *testing.T) {
	p := newRelPair(t, relEnd{}, relEnd{})
	const n = 200
	for i := 0; i < n; i++ {
		f := &Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}
		if err := p.r0.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames", func() bool { return len(p.at1()) == n })
	assertInOrder(t, p.at1(), n)
	// Standalone acks must drain the retransmit window even with no
	// reverse traffic.
	waitFor(t, "window drain", func() bool { return p.r0.Outstanding(1) == 0 })
	if s := p.r0.Stats(); s.DataSent != n {
		t.Errorf("DataSent = %d, want %d", s.DataSent, n)
	}
}

func TestReliableBidirectional(t *testing.T) {
	p := newRelPair(t, relEnd{}, relEnd{})
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := p.r1.Send(&Frame{Src: 2, Dst: 0, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both directions", func() bool { return len(p.at1()) == n && len(p.at0()) == n })
	assertInOrder(t, p.at1(), n)
	assertInOrder(t, p.at0(), n)
	waitFor(t, "windows drain", func() bool {
		return p.r0.Outstanding(1) == 0 && p.r1.Outstanding(0) == 0
	})
}

// TestReliableRecoversFromDrops: heavy seeded loss below the reliability
// layer is repaired by retransmission; delivery stays exactly-once and
// in-order.
func TestReliableRecoversFromDrops(t *testing.T) {
	fd := NewFaultDevice(1234, FaultPlan{Drop: 0.3})
	defer fd.Close()
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd}},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}})
	const n = 150
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames despite drops", func() bool { return len(p.at1()) == n })
	assertInOrder(t, p.at1(), n)
	if s := p.r0.Stats(); s.Retransmits == 0 {
		t.Error("30% drop produced zero retransmits")
	}
	if fd.Stats().Dropped == 0 {
		t.Error("fault device dropped nothing at rate 0.3")
	}
}

// TestReliableSuppressesDuplicates: duplicated wire frames are delivered
// upward exactly once.
func TestReliableSuppressesDuplicates(t *testing.T) {
	fd := NewFaultDevice(99, FaultPlan{Duplicate: 0.5})
	defer fd.Close()
	p := newRelPair(t, relEnd{send: []SendDevice{fd}}, relEnd{})
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames", func() bool { return len(p.at1()) >= n })
	// Give any straggler duplicates time to arrive, then assert none
	// leaked through.
	waitFor(t, "window drain", func() bool { return p.r0.Outstanding(1) == 0 })
	assertInOrder(t, p.at1(), n)
	if s := p.r1.Stats(); s.DupDropped == 0 {
		t.Error("50% duplication produced zero suppressed duplicates")
	}
}

// TestReliableSurvivesCorruption: bit-flipped frames fail the CRC, are
// dropped, and are repaired by retransmission.
func TestReliableSurvivesCorruption(t *testing.T) {
	fd := NewFaultDevice(7, FaultPlan{Corrupt: 0.3})
	defer fd.Close()
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd}},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}})
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames despite corruption", func() bool { return len(p.at1()) == n })
	assertInOrder(t, p.at1(), n)
	if s := p.r1.Stats(); s.CrcDropped == 0 && s.BadHdrs == 0 {
		t.Error("30% corruption never tripped CRC or header checks")
	}
}

// TestReliableReconnectsAfterDropConn: a severed TCP connection mid-stream
// is re-dialed by the retransmit path; nothing is lost or reordered, and
// the transport error is absorbed rather than surfaced.
func TestReliableReconnectsAfterDropConn(t *testing.T) {
	var failed sync.Once
	var failErr error
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond},
			onFail: func(err error) { failed.Do(func() { failErr = err }) }},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}})

	const n = 200
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			waitFor(t, "live connection", func() bool { return p.t0.DropConn(1) })
		}
	}
	waitFor(t, "all frames across reconnect", func() bool { return len(p.at1()) == n })
	assertInOrder(t, p.at1(), n)
	waitFor(t, "window drain", func() bool { return p.r0.Outstanding(1) == 0 })
	if failErr != nil {
		t.Errorf("transport drop escalated to terminal failure: %v", failErr)
	}
	if s := p.r0.Stats(); s.TransportErrs == 0 {
		t.Error("DropConn produced no absorbed transport error")
	}
}

// TestReliableBudgetExhaustion: when every frame is lost, the retransmit
// budget runs out and the error handler — and only then — fires.
func TestReliableBudgetExhaustion(t *testing.T) {
	fd := NewFaultDevice(1, FaultPlan{Drop: 1})
	defer fd.Close()
	errc := make(chan error, 1)
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 2 * time.Millisecond, RTOMax: 4 * time.Millisecond, MaxRetransmits: 3},
			send: []SendDevice{fd},
			onFail: func(err error) {
				select {
				case errc <- err:
				default:
				}
			}},
		relEnd{})
	if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("handler fired with nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retransmit budget exhaustion never fired the error handler")
	}
	// After terminal failure, Send reports the stored error.
	waitFor(t, "send fails terminally", func() bool {
		return p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("late")}) != nil
	})
}

// TestReliableDropsUnflagged: every stack carries the layer, so a data
// frame without FlagReliable can only have been sent below it. It is not
// delivered and is counted as a bad header; reliable traffic behind it on
// the same connection still arrives.
func TestReliableDropsUnflagged(t *testing.T) {
	p := newRelPair(t, relEnd{}, relEnd{})
	// Send below the reliability layer, straight through the TCP device.
	if err := p.t0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("raw")}); err != nil {
		t.Fatal(err)
	}
	if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("msg-0")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reliable frame", func() bool { return len(p.at1()) == 1 })
	assertInOrder(t, p.at1(), 1)
	if got := p.r1.Stats().BadHdrs; got != 1 {
		t.Errorf("BadHdrs = %d, want 1 for the unflagged frame", got)
	}
}

// TestReliableCountsWindowStalls: a Send blocked on a full retransmit
// window is counted when it blocks and timed when it is released.
func TestReliableCountsWindowStalls(t *testing.T) {
	dropAll := RecvDeviceFunc{DeviceName: "drop-acks", Fn: func(*Frame, RecvFunc) error { return nil }}
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{Window: 2, RTO: time.Hour, RTOMax: time.Hour}, recv: []RecvDevice{dropAll}},
		relEnd{})
	for i := 0; i < 2; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("msg-2")}) }()
	waitFor(t, "the third send to block", func() bool { return p.r0.Stats().WindowStalls == 1 })
	p.r0.Close()
	if err := <-blocked; err == nil {
		t.Error("a send released by Close reported success")
	}
	if s := p.r0.Stats(); s.WindowStalls != 1 || s.WindowStallNanos <= 0 {
		t.Errorf("WindowStalls = %d, WindowStallNanos = %d; want 1 and > 0", s.WindowStalls, s.WindowStallNanos)
	}
}

// TestReliableRecyclesOnlyIdleAckedEntries: a retransmit entry's frame and
// body go back to their pools when an ack frees the entry, but never while
// a sender is still copying them. A stall device below the layer holds
// every fifth transmission for three RTOs — a first send or a retransmit
// stuck in TCP backpressure — while drops and jitter further down make
// retransmits of the stalled frames arrive, and be acked, during the
// stall. The stalled frame must not change under its copier; nothing is
// corrupted in flight, so a CRC or header failure at the receiver means a
// recycled buffer went onto the wire.
func TestReliableRecyclesOnlyIdleAckedEntries(t *testing.T) {
	const rto = 2 * time.Millisecond
	n := 300
	if testing.Short() {
		n = 120
	}
	fd := NewFaultDevice(chaosSeed(t), FaultPlan{Drop: 0.1, JitterMax: rto})
	defer fd.Close()
	var p *relPair
	var calls, stalled, overlaps atomic.Int64
	stall := SendDeviceFunc{DeviceName: "stall", Fn: func(f *Frame, next SendFunc) error {
		if calls.Add(1)%5 != 0 {
			return next(f)
		}
		stalled.Add(1)
		before := append([]byte(nil), f.Body...)
		h, _, _ := DecodeRelHeader(before)
		time.Sleep(3 * rto)
		if !bytes.Equal(f.Body, before) {
			t.Errorf("frame seq %d changed while a sender was copying it", h.Seq)
		}
		if p.r1.Stats().Delivered >= int64(h.Seq) {
			overlaps.Add(1) // delivered, and so soon acked, during the stall
		}
		return next(f)
	}}
	cfg := ReliableConfig{RTO: rto, AckDelay: rto / 2}
	p = newRelPair(t, relEnd{cfg: cfg, send: []SendDevice{stall, fd}}, relEnd{cfg: cfg})

	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Traffic is one-way, so the faulty path carries data frames only, and
	// once jittered copies have landed every transmission is accounted
	// for: dropped on the way, delivered, or suppressed as a duplicate.
	var s0, s1 ReliableStats
	var fs FaultStats
	waitFor(t, "delivery and settled counters", func() bool {
		s0, s1, fs = p.r0.Stats(), p.r1.Stats(), fd.Stats()
		return len(p.at1()) == n && p.r0.Outstanding(1) == 0 &&
			s0.DataSent+s0.Retransmits+fs.Duplicated-fs.Dropped == s1.Delivered+s1.DupDropped
	})
	assertInOrder(t, p.at1(), n)
	if s1.CrcDropped != 0 || s1.BadHdrs != 0 {
		t.Errorf("receiver dropped %d frames on CRC and %d on header; a recycled buffer was sent", s1.CrcDropped, s1.BadHdrs)
	}
	if stalled.Load() == 0 || overlaps.Load() == 0 || s0.Retransmits == 0 {
		t.Errorf("%d stalls, %d acked during their stall, %d retransmits: the schedule never overlapped a copy with an ack",
			stalled.Load(), overlaps.Load(), s0.Retransmits)
	}
	t.Logf("stalls %d (acked during the stall %d); sender %+v; receiver %+v; faults %+v",
		stalled.Load(), overlaps.Load(), s0, s1, fs)
}
