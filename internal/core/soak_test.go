package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/topology"
)

// soakHop is the soak's payload: the hops left, and the modeled size the
// link charges for it.
type soakHop struct{ hops, size int }

func (h soakHop) PayloadBytes() int { return h.size }

// TestSoakRandomTraffic pushes a few thousand randomly-routed,
// randomly-sized messages across a two-cluster
// machine with a WAN delay, and checks that every message is delivered
// exactly once: the last delivery ends the run, and after Run returns
// every routed message has been processed.
func TestSoakRandomTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		pes      = 8
		elems    = 64
		seeds    = 40
		hopsEach = 120
		want     = seeds * (hopsEach + 1)
	)
	topo, err := topology.TwoClusters(pes, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Int64
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: elems,
			New: func(i int) Chare {
				rng := rand.New(rand.NewSource(int64(i) + 99))
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					if delivered.Add(1) == want {
						ctx.Exit()
					}
					hops := data.(soakHop).hops
					if hops <= 0 {
						return
					}
					ctx.Send(ElemRef{0, rng.Intn(elems)}, 0, soakHop{hops - 1, rng.Intn(2048)})
				})
			},
		}},
		Start: func(ctx *Ctx) {
			for s := 0; s < seeds; s++ {
				ctx.Send(ElemRef{0, s % elems}, 0, soakHop{hopsEach, DefaultPayloadBytes})
			}
		},
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if _, err := rt.Run(); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("soak run never finished: %d of %d deliveries", delivered.Load(), want)
	}
	if got := delivered.Load(); got != want {
		t.Errorf("delivered %d handler invocations, want %d", got, want)
	}
	sent, processed := rt.Counters()
	if sent != processed {
		t.Errorf("counters diverge after the last delivery: %d sent vs %d processed", sent, processed)
	}
}
