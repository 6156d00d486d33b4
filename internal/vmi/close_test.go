package vmi

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// reliableGoroutines returns the IDs of the goroutines running inside
// the reliability layer. Identities, not totals: a goroutine of an
// earlier test still winding down must not cancel out one this test
// leaked.
func reliableGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	// Goroutine dumps are blank-line separated, each headed
	// "goroutine N [state]:".
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "vmi.(*Reliable).") {
			id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
			ids[id] = true
		}
	}
	return ids
}

// TestStackCloseAbortsDialToUnreachedPeer: a stack whose only peer
// refuses connections has its first send and the retransmissions behind
// it sitting in the TCP device's dial backoff (~9 s per dial). Close
// must abort those dials rather than wait them out, return promptly,
// report no failure, and leave no reliability goroutine behind.
func TestStackCloseAbortsDialToUnreachedPeer(t *testing.T) {
	base := reliableGoroutines()
	route := func(pe int32) int { return int(pe) }
	s, err := NewChainBuilder(0, map[int]string{0: "127.0.0.1:0", 1: deadAddr(t)}, route).Build()
	if err != nil {
		t.Fatal(err)
	}
	s.Bind(func(*Frame) error { return nil }, func(err error) { t.Errorf("failure hook fired: %v", err) })
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		_ = s.Send(&Frame{Src: 0, Dst: 1, Body: []byte("never delivered")})
	}()
	// Long enough for the first retransmission to start dialing too.
	time.Sleep(300 * time.Millisecond)

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatalf("Close still blocked after 2s")
	}
	t.Logf("Close took %v", time.Since(start))
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("Send still blocked in its dial after Close")
	}
	for id := range reliableGoroutines() {
		if !base[id] {
			t.Errorf("reliability goroutine %s survived Close", id)
		}
	}
}
