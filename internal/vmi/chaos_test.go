package vmi

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"
)

// chaosSeed returns the seed for a chaos run: GRIDMDO_CHAOS_SEED when set
// (so a failure can be replayed exactly), else a fixed default. The seed is
// always logged so the failing schedule is reproducible.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("GRIDMDO_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GRIDMDO_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed: %d (set GRIDMDO_CHAOS_SEED=%d to replay)", seed, seed)
	return seed
}

// chaosPlan is the all-faults-at-once schedule used by the e2e chaos
// tests: drops, duplicates, reordering, corruption, and jitter together.
func chaosPlan() FaultPlan {
	return FaultPlan{
		Drop:      0.05,
		Duplicate: 0.05,
		Reorder:   0.05,
		Corrupt:   0.05,
		JitterMax: 2 * time.Millisecond,
	}
}

// TestChaosAllFaultsBothDirections: with every fault kind active on both
// send paths, the reliability layer still delivers every frame exactly
// once, in order, in both directions.
func TestChaosAllFaultsBothDirections(t *testing.T) {
	seed := chaosSeed(t)
	fd0 := NewFaultDevice(seed, chaosPlan())
	fd1 := NewFaultDevice(seed+1, chaosPlan())
	defer fd0.Close()
	defer fd1.Close()
	end := func(fd *FaultDevice) relEnd {
		return relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd}}
	}
	p := newRelPair(t, end(fd0), end(fd1))

	n := 300
	if testing.Short() {
		n = 120
	}
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := p.r1.Send(&Frame{Src: 2, Dst: 0, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames both directions", func() bool {
		return len(p.at1()) == n && len(p.at0()) == n
	})
	assertInOrder(t, p.at1(), n)
	assertInOrder(t, p.at0(), n)
	waitFor(t, "windows drain", func() bool {
		return p.r0.Outstanding(1) == 0 && p.r1.Outstanding(0) == 0
	})
	t.Logf("faults injected 0→1: %+v", fd0.Stats())
	t.Logf("faults injected 1→0: %+v", fd1.Stats())
	t.Logf("repair stats node 0: %+v", p.r0.Stats())
	t.Logf("repair stats node 1: %+v", p.r1.Stats())
}

// TestChaosDropConnMidRun: forced TCP disconnects during an all-faults run
// are repaired by the retransmit path's transparent re-dial.
func TestChaosDropConnMidRun(t *testing.T) {
	seed := chaosSeed(t)
	fd := NewFaultDevice(seed, chaosPlan())
	defer fd.Close()
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd}},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}})

	n := 300
	if testing.Short() {
		n = 120
	}
	for i := 0; i < n; i++ {
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if i == n/3 || i == 2*n/3 {
			// The connection may be mid-re-dial from the previous drop;
			// wait until there is a live one to sever.
			waitFor(t, "live connection to drop", func() bool { return p.t0.DropConn(1) })
		}
	}
	waitFor(t, "all frames across disconnects", func() bool { return len(p.at1()) == n })
	assertInOrder(t, p.at1(), n)
	waitFor(t, "window drain", func() bool { return p.r0.Outstanding(1) == 0 })
	if s := p.r0.Stats(); s.TransportErrs == 0 {
		t.Error("forced disconnects produced no absorbed transport errors")
	}
}

// TestChaosPartitionSeverHeal: a transient network partition loses every
// in-flight frame; after Heal the retransmit budget repairs the gap and
// delivery is still exactly-once, in-order.
func TestChaosPartitionSeverHeal(t *testing.T) {
	seed := chaosSeed(t)
	fd := NewFaultDevice(seed, FaultPlan{Drop: 0.05})
	defer fd.Close()
	wan := NewPartitionDevice(nil)
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd, wan}},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}})

	n := 150
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		if i == n/3 {
			wan.Sever()
		}
		if i == n/2 {
			// Hold the partition across a few RTOs so retransmits are
			// swallowed too, then heal.
			time.Sleep(30 * time.Millisecond)
			wan.Heal()
		}
		if err := p.r0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames across partition", func() bool { return len(p.at1()) == n })
	assertInOrder(t, p.at1(), n)
	waitFor(t, "window drain", func() bool { return p.r0.Outstanding(1) == 0 })
	if wan.Dropped() == 0 {
		t.Error("partition swallowed no frames; sever window never covered traffic")
	}
}

// TestChaosSameSeedSameFaultSchedule: the e2e harness's fault schedule is
// replayable — two fault devices with the same seed, driven by the same
// deterministic frame sequence, make identical decisions. (The end-to-end
// runs above assert outcome invariants instead, because retransmissions
// interleave with first sends nondeterministically; this test pins down
// that the injected schedule itself is a pure function of the seed.)
func TestChaosSameSeedSameFaultSchedule(t *testing.T) {
	seed := chaosSeed(t)
	run := func() []FaultEvent {
		fd := NewFaultDevice(seed, chaosPlan())
		fd.RecordLog()
		chain := BuildSendChain(func(*Frame) error { return nil }, fd)
		for i := 0; i < 500; i++ {
			body := []byte(fmt.Sprintf("msg-%d", i))
			if err := chain(&Frame{Src: 0, Dst: 2, Body: body}); err != nil {
				t.Fatal(err)
			}
		}
		fd.Close()
		return fd.Log()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no fault events at chaos rates over 500 frames")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d (seed %d)", len(a), len(b), seed)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v (seed %d)", i, a[i], b[i], seed)
		}
	}
}
