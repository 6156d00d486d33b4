package sim

import (
	"reflect"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

type funcChare func(ctx *core.Ctx, entry core.EntryID, data any)

// sized is a test payload with a modeled wire size: n is whatever the
// test counts (hops left), bytes what the link model charges for it.
type sized struct{ n, bytes int }

func (s sized) PayloadBytes() int { return s.bytes }

func (f funcChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) { f(ctx, entry, data) }

// PUP implements core.Migratable with no state, so LB tests can migrate
// funcChare elements (the handler itself rebuilds from the constructor).
func (f funcChare) PUP(*core.PUP) {}

// cleanTopo builds a two-cluster topology with exactly-L inter-cluster
// latency and no overhead/bandwidth terms, so tests can assert exact
// virtual times.
func cleanTopo(t *testing.T, p int, l time.Duration) *topology.Topology {
	t.Helper()
	topo, err := topology.TwoClusters(p, l, topology.WithIntraLink(topology.Link{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetClusterPairLink(0, 1, topology.Link{Latency: l}); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestVirtualTimePingPongExact(t *testing.T) {
	const rounds = 3
	const lat = 5 * time.Millisecond
	const work = time.Millisecond
	topo := cleanTopo(t, 2, lat)

	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, entry core.EntryID, data any) {
					n := data.(int)
					if n >= 2*rounds {
						ctx.ExitWith(ctx.Time())
						return
					}
					ctx.Charge(work)
					ctx.Send(core.ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n+1)
				})
			},
		}},
		Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 0) },
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, final, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Start→elem0 over the self link (1µs), then 2*rounds hops of
	// (1ms work + 5ms flight).
	want := time.Microsecond + 2*rounds*(work+lat)
	if got := v.(time.Duration); got != want {
		t.Errorf("exit virtual time = %v, want %v", got, want)
	}
	if final != want {
		t.Errorf("final clock = %v, want %v", final, want)
	}
}

// TestPingPongAllocatesNoMessage pins the virtual-time message path: a
// message's handler returns it to the pool its successor is drawn from, so
// a ping-pong allocates nothing per message (the event heap and the PE
// queues are already grown to their one in-flight message).
func TestPingPongAllocatesNoMessage(t *testing.T) {
	topo := cleanTopo(t, 2, time.Millisecond)
	perRun := func(trips int) float64 {
		return testing.AllocsPerRun(5, func() {
			prog := &core.Program{
				Arrays: []core.ArraySpec{{ID: 0, N: 2, New: func(int) core.Chare {
					left := trips
					return funcChare(func(ctx *core.Ctx, _ core.EntryID, data any) {
						if left == 0 {
							ctx.Exit()
							return
						}
						left--
						ctx.Send(core.ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, data)
					})
				}}},
				Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, nil) },
			}
			e, err := New(topo, prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 2 × 1,000 messages separate the runs. Under the race detector
	// sync.Pool drops a quarter of its Puts, so a quarter of the messages
	// are allocated afresh.
	got := (perRun(1500) - perRun(500)) / 2000
	if want := 0.0; !raceEnabled && got != want {
		t.Errorf("a virtual-time message costs %v allocations, want %v", got, want)
	}
	if raceEnabled && got > 0.35 {
		t.Errorf("a virtual-time message costs %v allocations under the race detector, want about 0.25", got)
	}
}

// TestOverlapMasksLatency verifies the paper's central mechanism: a PE
// waiting on a WAN round trip keeps executing other objects, so total time
// is max(local work, RTT), not their sum.
func TestOverlapMasksLatency(t *testing.T) {
	const lat = 10 * time.Millisecond
	const chainLen = 15 // 15 × 1ms of local work
	topo := cleanTopo(t, 2, lat)

	const (
		aMain      = 0 // coordinator element 0 on PE 0
		aWaiter    = 1
		aResponder = 2
		aWorker    = 3
	)
	done := 0
	prog := &core.Program{
		Arrays: []core.ArraySpec{
			{ID: aMain, N: 1, New: func(int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					done++
					if done == 2 {
						ctx.ExitWith(ctx.Time())
					}
				})
			}},
			{ID: aWaiter, N: 1, Map: func(int, int) int { return 0 }, New: func(int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					switch e {
					case 0: // kick: ask the remote responder
						ctx.Send(core.ElemRef{Array: aResponder, Index: 0}, 0, nil)
					case 1: // reply arrived
						ctx.Send(core.ElemRef{Array: aMain, Index: 0}, 0, nil)
					}
				})
			}},
			{ID: aResponder, N: 1, Map: func(int, int) int { return 1 }, New: func(int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					ctx.Send(core.ElemRef{Array: aWaiter, Index: 0}, 1, nil)
				})
			}},
			{ID: aWorker, N: 1, Map: func(int, int) int { return 0 }, New: func(int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					n := d.(int)
					ctx.Charge(time.Millisecond)
					if n == chainLen {
						ctx.Send(core.ElemRef{Array: aMain, Index: 0}, 0, nil)
						return
					}
					ctx.Send(core.ElemRef{Array: aWorker, Index: 0}, 0, n+1)
				})
			}},
		},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: aWaiter, Index: 0}, 0, nil)
			ctx.Send(core.ElemRef{Array: aWorker, Index: 0}, 0, 1)
		},
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := v.(time.Duration)
	rtt := 2 * lat
	sum := rtt + chainLen*time.Millisecond
	if got < rtt {
		t.Errorf("finished before the WAN round trip: %v < %v", got, rtt)
	}
	if got >= sum {
		t.Errorf("no overlap: %v >= serial time %v", got, sum)
	}
	// With perfect overlap the run ends just after the RTT.
	if got > rtt+2*time.Millisecond {
		t.Errorf("overlap imperfect: %v, want <= %v", got, rtt+2*time.Millisecond)
	}
}

func TestBandwidthModel(t *testing.T) {
	// 1 MB at 1 MB/s should take ~1s of virtual time.
	topo, err := topology.TwoClusters(2, 0, topology.WithIntraLink(topology.Link{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetClusterPairLink(0, 1, topology.Link{Bandwidth: 1e6}); err != nil {
		t.Fatal(err)
	}
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					ctx.ExitWith(ctx.Time())
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: 0, Index: 1}, 0, sized{0, 1_000_000})
		},
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(time.Duration); got != time.Second {
		t.Errorf("1MB over 1MB/s arrived at %v, want 1s", got)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 16,
				New: func(i int) core.Chare {
					return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
						n := d.(int)
						ctx.Charge(time.Duration(100+ctx.Elem().Index) * time.Microsecond)
						if n <= 0 {
							ctx.Contribute(float64(ctx.Elem().Index), core.OpSum)
							return
						}
						i := ctx.Elem().Index
						ctx.Send(core.ElemRef{Array: 0, Index: (i*7 + 3) % 16}, 0, n-1)
						ctx.Send(core.ElemRef{Array: 0, Index: (i*5 + 1) % 16}, 0, 0)
					})
				},
			}},
			Start: func(ctx *core.Ctx) {
				for i := 0; i < 16; i++ {
					ctx.Send(core.ElemRef{Array: 0, Index: i}, 0, 3)
				}
			},
		}
	}
	run := func() (time.Duration, Stats) {
		// The WAN policy puts cross-cluster sends in the priority lane,
		// so the determinism check covers both lanes of every PE queue.
		topo := cleanTopo(t, 8, 3*time.Millisecond)
		e, err := New(topo, build(), Options{PrioritizeWAN: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, final, err := e.Run(); err != nil {
			t.Fatal(err)
		} else {
			return final, e.Stats()
		}
		return 0, Stats{}
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Errorf("virtual end times differ: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats differ:\n%+v\n%+v", s1, s2)
	}
	if s1.Events == 0 || s1.Messages == 0 {
		t.Error("no activity recorded")
	}
}

func TestReductionInSim(t *testing.T) {
	topo := cleanTopo(t, 4, time.Millisecond)
	const n = 9
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					ctx.Contribute(1.0, core.OpSum)
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(core.ElemRef{Array: 0, Index: i}, 0, nil)
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) { ctx.ExitWith(v) },
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, final, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != n {
		t.Errorf("reduction = %v, want %d", v, n)
	}
	// Partials from cluster 1 cross the WAN once: at least 1ms of virtual
	// time must have passed.
	if final < time.Millisecond {
		t.Errorf("reduction completed in %v, faster than the WAN latency", final)
	}
}

func TestNaturalQuiescence(t *testing.T) {
	topo := cleanTopo(t, 2, time.Millisecond)
	count := 0
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					count++
					if n := d.(int); n > 0 {
						ctx.Send(core.ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n-1)
					}
				})
			},
		}},
		Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 6) },
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("exit value = %v without ExitWith", v)
	}
	if count != 7 {
		t.Errorf("handlers ran %d times, want 7", count)
	}
}

func TestEventBudgetGuard(t *testing.T) {
	topo := cleanTopo(t, 2, 0)
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 1,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, nil) // forever
				})
			},
		}},
		Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, nil) },
	}
	e, err := New(topo, prog, Options{MaxEvents: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(); err == nil {
		t.Error("runaway program not stopped by event budget")
	}
}

// moveAllTo mirrors the core test strategy.
type moveAllTo int

func (m moveAllTo) Plan(s *core.LBStats) []core.Move {
	var out []core.Move
	for _, el := range s.Elems {
		out = append(out, core.Move{Ref: el.Ref, ToPE: int(m)})
	}
	return out
}

func TestLoadBalancingInSim(t *testing.T) {
	topo := cleanTopo(t, 2, time.Millisecond)
	const n = 6
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					switch e {
					case 0:
						ctx.Charge(time.Duration(ctx.Elem().Index) * time.Millisecond)
						ctx.AtSync()
					case core.EntryResumeFromSync:
						ctx.Contribute(float64(ctx.PE()), core.OpSum)
					}
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(core.ElemRef{Array: 0, Index: i}, 0, nil)
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) { ctx.ExitWith(v) },
		LB:          &core.LBConfig{Arrays: []core.ArrayID{0}, Strategy: moveAllTo(0)},
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 0 {
		t.Errorf("post-LB PE sum = %v, want 0 (all on PE 0)", v)
	}
}

// Utilization reports the mean busy fraction across PEs at the final
// virtual time.
func (s Stats) Utilization() float64 {
	if s.VirtualTime <= 0 || len(s.PEBusy) == 0 {
		return 0
	}
	var sum time.Duration
	for _, b := range s.PEBusy {
		sum += b
	}
	return float64(sum) / float64(s.VirtualTime) / float64(len(s.PEBusy))
}

func TestStatsUtilization(t *testing.T) {
	topo := cleanTopo(t, 2, 0)
	ran := 0
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, e core.EntryID, d any) {
					ctx.Charge(10 * time.Millisecond)
					if ran++; ran == 2 {
						ctx.ExitWith(nil)
					}
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, nil)
			ctx.Send(core.ElemRef{Array: 0, Index: 1}, 0, nil)
		},
	}
	e, err := New(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.PEBusy[0] != 10*time.Millisecond || s.PEBusy[1] != 10*time.Millisecond {
		t.Errorf("PEBusy = %v", s.PEBusy)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if s.Processed[0] == 0 {
		t.Error("processed count missing")
	}
}
