package vmi

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestDialBackoffSchedule pins the retry wait table: 50ms doubling per
// attempt, capped at 2s, including attempts past the shift-overflow range.
func TestDialBackoffSchedule(t *testing.T) {
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{0, 50 * time.Millisecond},
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, 1600 * time.Millisecond},
		{6, 2 * time.Second},
		{7, 2 * time.Second},
		{63, 2 * time.Second},
		{1000, 2 * time.Second},
	}
	for _, tc := range cases {
		if got := dialBackoff(tc.attempt); got != tc.want {
			t.Errorf("dialBackoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

// deadAddr returns a loopback address nothing is listening on, so dials
// fail fast with connection-refused rather than timing out.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialRetryAbortsMidBackoff: closing the done channel while dialRetry
// is sitting out a backoff wait returns net.ErrClosed promptly instead of
// sleeping out the remaining schedule (~9s at 10 attempts).
func TestDialRetryAbortsMidBackoff(t *testing.T) {
	addr := deadAddr(t)
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := dialRetry(addr, 10, done)
		errc <- err
	}()
	// Let the first dial fail and the backoff wait begin, then abort.
	time.Sleep(20 * time.Millisecond)
	close(done)
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dialRetry kept backing off after done closed")
	}
}

// TestDialRetryAbortsBeforeFirstDial: a done channel closed up front wins
// over the dial loop entirely.
func TestDialRetryAbortsBeforeFirstDial(t *testing.T) {
	done := make(chan struct{})
	close(done)
	if _, err := dialRetry(deadAddr(t), 10, done); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v, want net.ErrClosed", err)
	}
}

// TestDialRetryReturnsDialError: with done open, exhausting the attempts
// returns the last dial error, and the final failure does not sit out a
// pointless trailing backoff.
func TestDialRetryReturnsDialError(t *testing.T) {
	addr := deadAddr(t)
	start := time.Now()
	_, err := dialRetry(addr, 2, make(chan struct{}))
	if err == nil || errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v, want the dial failure", err)
	}
	// Two refused dials separated by one 50ms backoff; anything near the
	// second backoff (100ms) means we slept after the final attempt.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("dialRetry took %v for 2 fast-fail attempts", elapsed)
	}
}

// TestDialRetrySucceeds: a listener that exists on the first attempt
// connects without consuming the backoff schedule.
func TestDialRetrySucceeds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := dialRetry(ln.Addr().String(), 1, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestTCPCloseAbortsPendingDial: Close while connTo is mid-backoff against
// an unreachable peer unblocks the dial instead of waiting out the
// schedule.
func TestTCPCloseAbortsPendingDial(t *testing.T) {
	route := func(pe int32) int {
		if pe < 2 {
			return 0
		}
		return 1
	}
	tr := NewTCP(0, map[int]string{0: "127.0.0.1:0", 1: deadAddr(t)}, route, func(*Frame) error { return nil })
	if _, err := tr.Listen(); err != nil {
		t.Fatal(err)
	}
	tr.DialAttempts = 10
	errc := make(chan error, 1)
	go func() {
		errc <- tr.Send(&Frame{Src: 0, Dst: 2, Body: []byte("x")})
	}()
	time.Sleep(20 * time.Millisecond)
	tr.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("send to unreachable peer succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send stayed blocked in dial backoff after Close")
	}
}
