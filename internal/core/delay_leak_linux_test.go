package core_test

import (
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// delaySet is what the process's delay devices hold at one instant:
// open timerfd descriptors by number and parked release goroutines by
// goroutine ID.
type delaySet struct{ fds, loops map[string]bool }

func delayResources(t *testing.T) delaySet {
	t.Helper()
	s := delaySet{fds: map[string]bool{}, loops: map[string]bool{}}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if link, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && link == "anon_inode:[timerfd]" {
			s.fds[e.Name()] = true
		}
	}
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Goroutine dumps are blank-line separated, each headed
	// "goroutine N [state]:".
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "vmi.(*DelayDevice).loop(") {
			id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
			s.loops[id] = true
		}
	}
	return s
}

// newSince counts the descriptors and loops s holds that base did not.
// Identities, not totals: a loop of an earlier run that has passed
// wg.Done but not yet exited is in base and gone from s, and would
// otherwise cancel out a loop this run opened.
func (s delaySet) newSince(base delaySet) (fds, loops int) {
	for fd := range s.fds {
		if !base.fds[fd] {
			fds++
		}
	}
	for id := range s.loops {
		if !base.loops[id] {
			loops++
		}
	}
	return fds, loops
}

// probeChare bounces a counter between two elements like pingChare and
// calls check from inside every handler, i.e. while both runtimes are live.
type probeChare struct {
	limit int
	check func()
}

func (c *probeChare) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	c.check()
	n := data.(int)
	if n >= c.limit {
		ctx.ExitWith(n)
		return
	}
	ctx.Send(core.ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n+1)
}

func runPingPong(t *testing.T, wan time.Duration, check func()) {
	t.Helper()
	topo, err := topology.TwoClusters(2, wan)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4 // even: the exchange ends on element 0 (node 0)
	mkProg := func(int) *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 2,
				New: func(int) core.Chare { return &probeChare{limit: limit, check: check} },
			}},
			Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 0) },
		}
	}
	v, err := runPair(t, core.NewTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, nil), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != limit {
		t.Fatalf("final value = %v, want %d", v, limit)
	}
}

// TestZeroLatencyRuntimeOpensNoAlarm: a runtime whose links all have zero
// latency never holds a frame, so its delay device opens no timer
// descriptor and parks no release goroutine — checked from inside the run.
func TestZeroLatencyRuntimeOpensNoAlarm(t *testing.T) {
	base := delayResources(t)
	runPingPong(t, 0, func() {
		if fds, loops := delayResources(t).newSince(base); fds != 0 || loops != 0 {
			t.Errorf("mid-run: %d timerfds and %d release loops opened, want none", fds, loops)
		}
	})
}

// TestWANRuntimeReturnsItsAlarm: fifty two-node runs over a 1 ms WAN, each
// of which does open the alarm, leave no descriptor and no goroutine behind.
func TestWANRuntimeReturnsItsAlarm(t *testing.T) {
	base := delayResources(t)
	for i := 0; i < 50; i++ {
		t.Run("", func(t *testing.T) { // scopes NewTCPPair's cleanup to one run
			before := delayResources(t)
			var opened atomic.Bool // set by handlers on both nodes
			runPingPong(t, time.Millisecond, func() {
				if _, loops := delayResources(t).newSince(before); loops > 0 {
					opened.Store(true)
				}
			})
			if !opened.Load() {
				t.Error("no release loop seen during a WAN run: the test proves nothing")
			}
		})
	}
	if fds, loops := delayResources(t).newSince(base); fds != 0 || loops != 0 {
		t.Errorf("after 50 runs: %d timerfds and %d release loops leaked", fds, loops)
	}
}
