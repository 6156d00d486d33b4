package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// Engine invariants, checked over randomly generated programs:
//
//  1. per-PE charged busy time never exceeds the final virtual clock;
//  2. handler begin times are non-decreasing per PE (a PE executes one
//     thing at a time, in order);
//  3. no message is delivered before its send time plus the minimum link
//     latency for its (src, dst) class;
//  4. the run is deterministic: re-running the same seed reproduces the
//     exact Stats.
func TestEngineInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pes := 2 * (1 + rng.Intn(3))
		n := pes + rng.Intn(3*pes)
		lat := time.Duration(rng.Intn(8)) * time.Millisecond
		hops := 1 + rng.Intn(40)

		topo, err := topology.TwoClusters(pes, lat)
		if err != nil {
			return false
		}
		build := func() *core.Program {
			return &core.Program{
				Arrays: []core.ArraySpec{{
					ID: 0, N: n,
					New: func(i int) core.Chare {
						r := rand.New(rand.NewSource(seed ^ int64(i)))
						return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
							h := d.(sized).n
							ctx.Charge(time.Duration(r.Intn(500)) * time.Microsecond)
							if h > 0 {
								ctx.Send(core.ElemRef{Array: 0, Index: r.Intn(n)}, 0, sized{h - 1, r.Intn(4096)})
							}
						})
					},
				}},
				Start: func(ctx *core.Ctx) {
					for i := 0; i < pes; i++ {
						ctx.Send(core.ElemRef{Array: 0, Index: i % n}, 0, sized{hops, core.DefaultPayloadBytes})
					}
				},
			}
		}
		run := func() (Stats, bool) {
			e, err := New(topo, build(), Options{MaxEvents: 5_000_000})
			if err != nil {
				return Stats{}, false
			}
			if _, _, err := e.Run(); err != nil {
				return Stats{}, false
			}
			return e.Stats(), true
		}
		s1, ok := run()
		if !ok {
			return false
		}
		// (1) busy <= virtual time per PE.
		for _, b := range s1.PEBusy {
			if b > s1.VirtualTime {
				return false
			}
		}
		// (4) determinism.
		s2, ok := run()
		if !ok {
			return false
		}
		if s1.VirtualTime != s2.VirtualTime || s1.Events != s2.Events ||
			s1.Messages != s2.Messages || s1.Frames != s2.Frames {
			return false
		}
		for i := range s1.PEBusy {
			if s1.PEBusy[i] != s2.PEBusy[i] || s1.Processed[i] != s2.Processed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestHandlerBeginMonotonePerPE checks invariant (2) with tracing, and
// (3) for the WAN latency floor, on one representative random program.
func TestHandlerBeginMonotonePerPE(t *testing.T) {
	const pes, n = 4, 12
	lat := 3 * time.Millisecond
	topo, err := topology.TwoClusters(pes, lat)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(pes)
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare {
				r := rand.New(rand.NewSource(int64(i)))
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					h := d.(int)
					ctx.Charge(200 * time.Microsecond)
					if h > 0 {
						ctx.Send(core.ElemRef{Array: 0, Index: r.Intn(n)}, 0, h-1)
					}
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 50)
			ctx.Send(core.ElemRef{Array: 0, Index: n - 1}, 0, 50)
		},
	}
	e, err := New(topo, prog, Options{Trace: tr, MaxEvents: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	last := make([]time.Duration, pes)
	for i := range last {
		last[i] = -1
	}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvBegin {
			if ev.At < last[ev.PE] {
				t.Fatalf("PE %d handler began at %v after one at %v", ev.PE, ev.At, last[ev.PE])
			}
			last[ev.PE] = ev.At
		}
	}
}
