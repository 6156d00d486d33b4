package vmi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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

// relPair wires two TCP nodes, each wrapped in a Reliable layer, over
// loopback. PEs 0..1 live on node 0, PEs 2..3 on node 1.
type relPair struct {
	t0, t1 *TCP
	r0, r1 *Reliable

	mu         sync.Mutex
	got0, got1 []*Frame
}

func newRelPair(t *testing.T, cfg0, cfg1 ReliableConfig) *relPair {
	t.Helper()
	route := func(pe int32) int {
		if pe < 2 {
			return 0
		}
		return 1
	}
	p := &relPair{}
	sink := func(dst *[]*Frame) RecvFunc {
		return func(f *Frame) error {
			p.mu.Lock()
			*dst = append(*dst, f.Clone())
			p.mu.Unlock()
			return nil
		}
	}
	p.t0 = NewTCP(0, map[int]string{0: "127.0.0.1:0", 1: ""}, route, nil)
	p.t1 = NewTCP(1, map[int]string{0: "", 1: "127.0.0.1:0"}, route, nil)
	p.r0 = NewReliable(p.t0, sink(&p.got0), cfg0)
	p.r1 = NewReliable(p.t1, sink(&p.got1), cfg1)
	a0, err := p.t0.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.t1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	p.t0.SetAddr(1, a1)
	p.t1.SetAddr(0, a0)
	t.Cleanup(func() {
		p.r0.Close()
		p.r1.Close()
		p.t0.Close()
		p.t1.Close()
	})
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
	p := newRelPair(t, ReliableConfig{}, ReliableConfig{})
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
	p := newRelPair(t, ReliableConfig{}, ReliableConfig{})
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
		ReliableConfig{RTO: 5 * time.Millisecond, SendFaults: []SendDevice{fd}},
		ReliableConfig{RTO: 5 * time.Millisecond})
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
	p := newRelPair(t, ReliableConfig{SendFaults: []SendDevice{fd}}, ReliableConfig{})
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
		ReliableConfig{RTO: 5 * time.Millisecond, SendFaults: []SendDevice{fd}},
		ReliableConfig{RTO: 5 * time.Millisecond})
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
		ReliableConfig{RTO: 5 * time.Millisecond,
			OnFail: func(err error) { failed.Do(func() { failErr = err }) }},
		ReliableConfig{RTO: 5 * time.Millisecond})

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
		ReliableConfig{RTO: 2 * time.Millisecond, RTOMax: 4 * time.Millisecond, MaxRetransmits: 3, SendFaults: []SendDevice{fd},
			OnFail: func(err error) {
				select {
				case errc <- err:
				default:
				}
			}},
		ReliableConfig{})
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

// TestReliablePassthrough: frames without FlagReliable (pre-reliability
// senders) bypass the layer untouched.
func TestReliablePassthrough(t *testing.T) {
	p := newRelPair(t, ReliableConfig{}, ReliableConfig{})
	// Send below the reliability layer, straight through the TCP device.
	if err := p.t0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("raw")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "raw frame", func() bool { return len(p.at1()) == 1 })
	if got := p.at1()[0]; string(got.Body) != "raw" {
		t.Errorf("body = %q, want %q", got.Body, "raw")
	}
}

// TestReliableCountsWindowStalls: a Send blocked on a full retransmit
// window is counted when it blocks and timed when it is released.
func TestReliableCountsWindowStalls(t *testing.T) {
	dropAll := RecvDeviceFunc{DeviceName: "drop-acks", Fn: func(*Frame, RecvFunc) error { return nil }}
	p := newRelPair(t,
		ReliableConfig{Window: 2, RTO: time.Hour, RTOMax: time.Hour, RecvFaults: []RecvDevice{dropAll}},
		ReliableConfig{})
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
