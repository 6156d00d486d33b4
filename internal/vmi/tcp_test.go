package vmi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// twoNodes builds a pair of TCP transports on loopback with dynamic ports.
// PEs 0..1 live on node 0, PEs 2..3 on node 1.
func twoNodes(t *testing.T) (*TCP, *TCP, func() []*Frame, func()) {
	t.Helper()
	route := func(pe int32) int {
		if pe < 2 {
			return 0
		}
		return 1
	}
	var mu sync.Mutex
	var got []*Frame
	sink := func(f *Frame) error {
		mu.Lock()
		got = append(got, f.Clone())
		mu.Unlock()
		return nil
	}
	addrs0 := map[int]string{0: "127.0.0.1:0", 1: ""}
	addrs1 := map[int]string{0: "", 1: "127.0.0.1:0"}
	n0 := NewTCP(0, addrs0, route, func(f *Frame) error { return nil })
	n1 := NewTCP(1, addrs1, route, sink)
	a0, err := n0.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := n1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n0.SetAddr(1, a1)
	n1.SetAddr(0, a0)
	frames := func() []*Frame {
		mu.Lock()
		defer mu.Unlock()
		return append([]*Frame(nil), got...)
	}
	cleanup := func() { n0.Close(); n1.Close() }
	return n0, n1, frames, cleanup
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPSendBetweenNodes(t *testing.T) {
	n0, _, frames, cleanup := twoNodes(t)
	defer cleanup()

	for i := 0; i < 10; i++ {
		f := &Frame{Src: 0, Dst: 2, Seq: uint64(i), Body: []byte(fmt.Sprintf("msg-%d", i))}
		if err := n0.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "10 frames", func() bool { return len(frames()) == 10 })
	for i, f := range frames() {
		if f.Seq != uint64(i) {
			t.Fatalf("out of order at %d: seq=%d", i, f.Seq)
		}
		if want := fmt.Sprintf("msg-%d", i); string(f.Body) != want {
			t.Fatalf("body = %q, want %q", f.Body, want)
		}
	}
}

func TestTCPBidirectionalOnSingleDial(t *testing.T) {
	n0, n1, frames, cleanup := twoNodes(t)
	defer cleanup()

	var mu sync.Mutex
	var back []*Frame
	n0.onRecv = func(f *Frame) error {
		mu.Lock()
		back = append(back, f.Clone())
		mu.Unlock()
		return nil
	}

	if err := n0.Send(&Frame{Src: 0, Dst: 3, Body: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ping", func() bool { return len(frames()) == 1 })

	// Node 1 replies; this should reuse the accepted connection.
	if err := n1.Send(&Frame{Src: 3, Dst: 0, Body: []byte("pong")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pong", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(back) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if string(back[0].Body) != "pong" {
		t.Errorf("reply body = %q", back[0].Body)
	}
}

func TestTCPSelfSendShortCircuits(t *testing.T) {
	var got *Frame
	n := NewTCP(0, map[int]string{0: "127.0.0.1:0"}, func(int32) int { return 0 },
		func(f *Frame) error { got = f; return nil })
	// No Listen needed: self-sends never touch the network.
	if err := n.Send(&Frame{Src: 0, Dst: 1, Body: []byte("loop")}); err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got.Body) != "loop" {
		t.Errorf("self-send not delivered locally: %v", got)
	}
}

func TestTCPUnserializedPayloadRejected(t *testing.T) {
	n0, _, _, cleanup := twoNodes(t)
	defer cleanup()
	err := n0.Send(&Frame{Src: 0, Dst: 2, Obj: struct{}{}})
	if err == nil {
		t.Error("frame with Obj and no Body accepted for wire transport")
	}
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	n0, _, _, cleanup := twoNodes(t)
	cleanup()
	if err := n0.Send(&Frame{Src: 0, Dst: 2, Body: []byte("x")}); err == nil {
		t.Error("send after close succeeded")
	}
}

func TestTCPUnknownNode(t *testing.T) {
	n := NewTCP(0, map[int]string{0: "127.0.0.1:0"}, func(int32) int { return 7 }, func(*Frame) error { return nil })
	if err := n.Send(&Frame{Src: 0, Dst: 9, Body: []byte("x")}); err == nil {
		t.Error("send to unknown node succeeded")
	}
}

func TestTCPWithTransformChain(t *testing.T) {
	// A device chain over real sockets: the body is transformed on send
	// and restored on receive.
	route := func(pe int32) int {
		if pe == 0 {
			return 0
		}
		return 1
	}
	var mu sync.Mutex
	var got []*Frame
	xor := func(f *Frame) {
		for i := range f.Body {
			f.Body[i] ^= 0x5A
		}
	}
	scramble := SendDeviceFunc{DeviceName: "xor", Fn: func(f *Frame, next SendFunc) error {
		xor(f)
		return next(f)
	}}
	restore := RecvDeviceFunc{DeviceName: "xor", Fn: func(f *Frame, next RecvFunc) error {
		xor(f)
		return next(f)
	}}
	recvChain := BuildRecvChain(func(f *Frame) error {
		mu.Lock()
		got = append(got, f.Clone())
		mu.Unlock()
		return nil
	}, restore)

	n0 := NewTCP(0, map[int]string{0: "127.0.0.1:0"}, route, func(*Frame) error { return nil })
	n1 := NewTCP(1, map[int]string{1: "127.0.0.1:0"}, route, recvChain)
	a0, err := n0.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := n1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n0.SetAddr(1, a1)
	n1.SetAddr(0, a0)
	defer n0.Close()
	defer n1.Close()

	sendChain := BuildSendChain(n0.Send, scramble)
	body := bytes.Repeat([]byte("stencil ghost row "), 200)
	if err := sendChain(&Frame{Src: 0, Dst: 1, Seq: 7, Body: append([]byte(nil), body...)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "transformed frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got[0].Body, body) {
		t.Error("body corrupted across transform+TCP stack")
	}
	if got[0].Flags != 0 {
		t.Errorf("flags not cleared: %x", got[0].Flags)
	}
}
