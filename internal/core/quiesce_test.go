package core

import (
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

func TestQDHandlesBadPayload(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return funcChare(func(*Ctx, EntryID, any) {}) }}},
		Start:  func(*Ctx) {},
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.handleQD(rt.pes[0], &Message{Kind: KindQD, Data: "junk"}); err == nil {
		t.Error("junk QD payload accepted")
	}
	rt.ExitWith(nil)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQDWithDelayedTraffic(t *testing.T) {
	// A chain of sends across a 20ms WAN: the detector must not fire
	// while frames sit in the delay device.
	topo := mustTopo(t, 2, 20*time.Millisecond)
	var lastAt time.Duration
	var rtRef *Runtime
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					n := data.(int)
					lastAt = ctx.Time()
					if n > 0 {
						ctx.Send(ElemRef{0, 1 - ctx.Elem().Index}, 0, n-1)
					}
				})
			},
		}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 3) },
	}
	rt, err := NewRuntime(topo, prog, WithQuiescence())
	if err != nil {
		t.Fatal(err)
	}
	rtRef = rt
	_ = rtRef
	start := time.Now()
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 3 WAN crossings of 20ms must have completed before quiescence.
	if elapsed < 60*time.Millisecond {
		t.Errorf("quiescence declared after %v, before the 60ms of WAN flight completed", elapsed)
	}
	if lastAt < 60*time.Millisecond {
		t.Errorf("last handler at %v: chain did not finish", lastAt)
	}
	sent, processed := rt.Counters()
	if sent != processed {
		t.Errorf("counters diverge after quiescence: %d vs %d", sent, processed)
	}
}

// TestQDMultiProcess runs quiescence detection across two runtimes joined
// by ChainBuilder stacks on TCP: probes and replies cross the wire.
func TestQDMultiProcess(t *testing.T) {
	topo, err := topology.TwoClusters(2, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mkProg := func(hits *int) *Program {
		return &Program{
			Arrays: []ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) Chare {
					return funcChare(func(ctx *Ctx, entry EntryID, data any) {
						*hits++
						if n := data.(int); n > 0 {
							ctx.Send(ElemRef{0, 1 - ctx.Elem().Index}, 0, n-1)
						}
					})
				},
			}},
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 4) },
		}
	}

	var hits [2]int
	pair := newTCPPair(t, topo, func(node int) *Program { return mkProg(&hits[node]) }, vmi.ReliableConfig{}, nil,
		func(int) []Option { return []Option{WithQuiescence()} })
	// Run returns once the coordinator detects quiescence, and stops the
	// worker.
	if _, err := pair.RunWithin(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The 5-hop chain alternates between the two elements.
	if hits[0] != 3 || hits[1] != 2 {
		t.Errorf("handler hits = %v, want [3 2]", hits)
	}
}
