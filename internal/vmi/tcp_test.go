package vmi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
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
		f := &Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}
		if err := n0.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "10 frames", func() bool { return len(frames()) == 10 })
	for i, f := range frames() {
		if want := fmt.Sprintf("msg-%d", i); string(f.Body) != want {
			t.Fatalf("out of order at %d: body = %q, want %q", i, f.Body, want)
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

// TestTCPSendControlNeedsControlCode: a control frame is one whose Dst is
// a negative Control* code, so SendControl refuses a PE destination
// rather than sending a frame the peer would route as data.
func TestTCPSendControlNeedsControlCode(t *testing.T) {
	n0, _, frames, cleanup := twoNodes(t)
	defer cleanup()
	for _, node := range []int{0, 1} {
		if err := n0.SendControl(node, &Frame{Src: 0, Dst: 2, Body: []byte("x")}); err == nil {
			t.Errorf("SendControl to node %d with Dst 2 accepted", node)
		}
	}
	if err := n0.SendControl(1, &Frame{Src: 0, Dst: ControlShutdown}); err != nil {
		t.Fatal(err)
	}
	if got := frames(); len(got) != 0 {
		t.Errorf("receive chain got %d frames from SendControl", len(got))
	}
}

// TestTCPRefusesOldHello: a peer speaking the 40-byte "VMI1" frame header
// is refused at hello: the listener closes the connection, and neither the
// hello nor the data frame behind it reaches OnControl or the receive
// chain.
func TestTCPRefusesOldHello(t *testing.T) {
	var mu sync.Mutex
	var control, data int
	n := NewTCP(0, map[int]string{0: "127.0.0.1:0"}, func(int32) int { return 0 },
		func(*Frame) error { mu.Lock(); data++; mu.Unlock(); return nil })
	n.OnControl = func(*Frame) { mu.Lock(); control++; mu.Unlock() }
	addr, err := n.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// VMI1 header: magic, class, reserved, flags, src, dst, prio, seq,
	// trace, body length.
	v1 := func(class byte, src, dst int32, body string) []byte {
		h := make([]byte, 40, 40+len(body))
		binary.BigEndian.PutUint32(h[0:], 0x564d4931)
		h[4] = class
		binary.BigEndian.PutUint32(h[8:], uint32(src))
		binary.BigEndian.PutUint32(h[12:], uint32(dst))
		binary.BigEndian.PutUint32(h[36:], uint32(len(body)))
		return append(h, body...)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(append(v1(2, 1, -1, ""), v1(0, 1, 0, "data")...)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a VMI1 hello: %v, want io.EOF (connection closed)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if control != 0 || data != 0 {
		t.Errorf("VMI1 peer reached OnControl %d times and the receive chain %d times", control, data)
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
	scramble := funcDevice{name: "xor", fn: func(f *Frame, next SendFunc) error {
		xor(f)
		return next(f)
	}}
	restore := func(f *Frame) error {
		xor(f)
		mu.Lock()
		got = append(got, f.Clone())
		mu.Unlock()
		return nil
	}

	n0 := NewTCP(0, map[int]string{0: "127.0.0.1:0"}, route, func(*Frame) error { return nil })
	n1 := NewTCP(1, map[int]string{1: "127.0.0.1:0"}, route, restore)
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
	if err := sendChain(&Frame{Src: 0, Dst: 1, Body: append([]byte(nil), body...)}); err != nil {
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
}
