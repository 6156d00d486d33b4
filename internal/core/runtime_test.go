package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// funcChare adapts a function to the Chare interface for tests.
type funcChare func(ctx *Ctx, entry EntryID, data any)

func (f funcChare) Recv(ctx *Ctx, entry EntryID, data any) { f(ctx, entry, data) }

// Counters reports (sent, processed) message counts summed over this
// process's PEs.
func (rt *Runtime) Counters() (sent, processed int64) {
	for pe := range rt.sentByPE {
		sent += rt.sentByPE[pe].Load()
		processed += rt.processedByPE[pe].Load()
	}
	return sent, processed
}

func mustTopo(t *testing.T, p int, lat time.Duration) *topology.Topology {
	t.Helper()
	topo, err := topology.TwoClusters(p, lat)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPingPongAcrossClusters(t *testing.T) {
	const rounds = 5
	const lat = 10 * time.Millisecond
	topo := mustTopo(t, 2, lat)

	// Element 0 on PE 0 (cluster 0), element 1 on PE 1 (cluster 1).
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					n := data.(int)
					if n >= 2*rounds {
						ctx.ExitWith(n)
						return
					}
					other := ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}
					ctx.Send(other, 0, n+1)
				})
			},
		}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 0) },
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 2*rounds {
		t.Errorf("final count = %v", v)
	}
	// 2*rounds WAN crossings, each at least lat.
	if el := time.Since(start); el < time.Duration(2*rounds)*lat {
		t.Errorf("elapsed %v, want >= %v: latency not injected", el, time.Duration(2*rounds)*lat)
	}
	sent, processed := rt.Counters()
	if sent != processed {
		t.Errorf("counters diverge: sent=%d processed=%d", sent, processed)
	}
}

func TestReductionEndToEnd(t *testing.T) {
	topo := mustTopo(t, 4, time.Millisecond)
	const n = 8
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: n,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					ctx.Contribute(float64(ctx.Elem().Index), OpSum)
				})
			},
		}},
		Start: func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(ElemRef{0, i}, 0, nil)
			}
		},
		OnReduction: func(ctx *Ctx, a ArrayID, seq int64, v any) {
			ctx.ExitWith(v)
		},
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(float64); got != 28 { // 0+1+...+7
		t.Errorf("reduction = %v, want 28", got)
	}
}

func TestPriorityDeliveryOrder(t *testing.T) {
	topo, err := topology.Single(1)
	if err != nil {
		t.Fatal(err)
	}
	// Ctx.Send has no priority; the scheduler still orders its queue by
	// Prio (the stop message overtakes queued work by it), so the burst
	// routes prioritized messages through the runtime itself.
	var got []int32
	var rt *Runtime
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					switch entry {
					case 0: // burst sender: enqueue with shuffled priorities
						for _, p := range []int32{3, -1, 2, 0, -5, 1} {
							m := NewMessage()
							m.Kind, m.To, m.Entry, m.Data = KindApp, ElemRef{0, 1}, 1, int(p)
							m.Prio, m.SrcPE = p, int32(ctx.PE())
							rt.Route(m)
						}
					case 1:
						got = append(got, int32(data.(int)))
						if len(got) == 6 {
							ctx.ExitWith(nil)
						}
					}
				})
			},
		}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
	}
	rt, err = NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int32{-5, -1, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestHandlerPanicSurfacesAsError(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(i int) Chare {
			return funcChare(func(*Ctx, EntryID, any) { panic("boom") })
		}}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic not surfaced: %v", err)
	}
}

func TestSendToMissingElementFails(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
			return funcChare(func(ctx *Ctx, entry EntryID, data any) { ctx.Exit() })
		}}},
		Start: func(ctx *Ctx) {
			// Out-of-range index routes to the clamp PE but no element exists.
			ctx.Send(ElemRef{Array: 0, Index: 1}, 0, nil)
		},
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatalf("valid send failed: %v", err)
	}
}

// TestUnknownKindFailsRun: the scheduler knows no bundle and no retired
// kind. A frame carrying either — a bundle, or kind 4, which quiescence
// probes used — fails the run with an error naming the kind instead of
// being dropped or unpacked.
func TestUnknownKindFailsRun(t *testing.T) {
	for _, m := range []*Message{
		MakeBundle([]*Message{
			{Kind: KindApp, To: ElemRef{0, 1}, SrcPE: 0, DstPE: 1, Data: 1},
			{Kind: KindApp, To: ElemRef{0, 1}, SrcPE: 0, DstPE: 1, Data: 2},
		}),
		{Kind: Kind(4), SrcPE: 0, DstPE: 1},
	} {
		var handled atomic.Int64
		prog := &Program{
			Arrays: []ArraySpec{{ID: 0, N: 2, New: func(int) Chare {
				return funcChare(func(*Ctx, EntryID, any) { handled.Add(1) })
			}}},
			Start: func(*Ctx) {},
		}
		rt, err := NewRuntime(mustTopo(t, 2, 0), prog)
		if err != nil {
			t.Fatal(err)
		}
		body, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.injectFrame(&vmi.Frame{Src: 0, Dst: 1, Body: body}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := rt.Run()
			done <- err
		}()
		select {
		case err := <-done:
			want := fmt.Sprintf("unknown message kind %d", m.Kind)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("kind %d: Run err = %v, want one containing %q", m.Kind, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("kind %d: run never failed", m.Kind)
		}
		if n := handled.Load(); n != 0 {
			t.Errorf("kind %d: %d handlers ran", m.Kind, n)
		}
	}
}

func TestMulticastReachesAllMembers(t *testing.T) {
	topo := mustTopo(t, 4, time.Millisecond)
	const n = 12
	var mu sync.Mutex
	seen := make(map[int]int)
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: n,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					mu.Lock()
					seen[ctx.Elem().Index]++
					mu.Unlock()
					ctx.Contribute(1.0, OpSum)
				})
			},
		}},
		Start: func(ctx *Ctx) {
			var refs []ElemRef
			for i := 0; i < n; i++ {
				refs = append(refs, ElemRef{0, i})
			}
			ctx.Multicast(NewSection(refs...), 0, "coords")
		},
		OnReduction: func(ctx *Ctx, a ArrayID, seq int64, v any) { ctx.ExitWith(v) },
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != n {
		t.Errorf("reduction = %v, want %d", v, n)
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("element %d received %d multicasts", i, seen[i])
		}
	}
}

// moveAllTo is a trivial LB strategy for protocol tests.
type moveAllTo int

func (m moveAllTo) Plan(s *LBStats) []Move {
	var out []Move
	for _, e := range s.Elems {
		out = append(out, Move{Ref: e.Ref, ToPE: int(m)})
	}
	return out
}

func TestLoadBalancingProtocol(t *testing.T) {
	topo := mustTopo(t, 2, time.Millisecond)
	const n = 4
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: n,
			New: func(i int) Chare {
				return &migChare{fn: func(ctx *Ctx, entry EntryID, data any) {
					switch entry {
					case 0:
						ctx.AtSync()
					case EntryResumeFromSync:
						// Report the PE we resumed on.
						ctx.Contribute(float64(ctx.PE()), OpSum)
					}
				}}
			},
		}},
		Start: func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(ElemRef{0, i}, 0, nil)
			}
		},
		OnReduction: func(ctx *Ctx, a ArrayID, seq int64, v any) { ctx.ExitWith(v) },
		LB:          &LBConfig{Arrays: []ArrayID{0}, Strategy: moveAllTo(1)},
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All n elements resumed on PE 1: sum of PEs = n*1.
	if v.(float64) != n {
		t.Errorf("post-LB PE sum = %v, want %d (all elements on PE 1)", v, n)
	}
	if got := rt.loc.LocalCount(0, 1); got != n {
		t.Errorf("PE 1 owns %d elements after LB, want %d", got, n)
	}
}

func TestTraceRecordsActivity(t *testing.T) {
	topo := mustTopo(t, 2, time.Millisecond)
	tr := trace.New(2)
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
			return funcChare(func(ctx *Ctx, entry EntryID, data any) {
				if ctx.Elem().Index == 0 {
					ctx.Send(ElemRef{0, 1}, 0, nil)
				} else {
					ctx.ExitWith(nil)
				}
			})
		}}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
	}
	rt, err := NewRuntime(topo, prog, WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) == 0 {
		t.Error("no trace events recorded")
	}
	var begins, sends int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.EvBegin:
			begins++
		case trace.EvSend:
			sends++
		}
	}
	if begins < 3 || sends < 2 {
		t.Errorf("begins=%d sends=%d, want >=3 begins and >=2 sends", begins, sends)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return funcChare(func(*Ctx, EntryID, any) {}) }}},
		Start:  func(*Ctx) {},
	}
	if _, err := NewRuntime(topo, &Program{}); err == nil {
		t.Error("invalid program accepted")
	}
	if _, err := NewRuntime(topo, prog, WithCluster(ClusterConfig{Transport: idleStack(t), PELo: 0, PEHi: 1})); err == nil {
		t.Error("multi-process without NodeOf accepted")
	}
	if _, err := NewRuntime(topo, prog, WithCluster(ClusterConfig{Transport: idleStack(t), NodeOf: func(int) int { return 0 }, PELo: 1, PEHi: 1})); err == nil {
		t.Error("empty PE range accepted")
	}
	// Load-balanced elements must serialize through PUP; a non-Migratable
	// chare type is rejected up front, single- or multi-process.
	lbProg := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return funcChare(func(*Ctx, EntryID, any) {}) }}},
		Start:  func(*Ctx) {},
		LB:     &LBConfig{Arrays: []ArrayID{0}, Strategy: moveAllTo(0)},
	}
	if _, err := NewRuntime(topo, lbProg, WithCluster(ClusterConfig{Transport: idleStack(t), NodeOf: func(int) int { return 0 }, PELo: 0, PEHi: 1})); err == nil {
		t.Error("multi-process load balancing of non-Migratable elements accepted")
	}
	// With Migratable elements, multi-process load balancing is supported.
	lbOK := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return &migChare{fn: func(*Ctx, EntryID, any) {}} }}},
		Start:  func(*Ctx) {},
		LB:     &LBConfig{Arrays: []ArrayID{0}, Strategy: moveAllTo(0)},
	}
	if _, err := NewRuntime(topo, lbOK, WithCluster(ClusterConfig{Transport: idleStack(t), NodeOf: func(int) int { return 0 }, PELo: 0, PEHi: 1})); err != nil {
		t.Errorf("multi-process load balancing rejected: %v", err)
	}
	// A balancer does not read the member table, so elastic membership
	// refuses a load-balanced program.
	st := idleStack(t)
	mem, err := NewMembership(MembershipConfig{Node: 1, Stack: st, NodeOf: func(int) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mem.Close)
	if _, err := NewRuntime(topo, lbOK, WithCluster(ClusterConfig{Transport: st, NodeOf: func(int) int { return 0 }, PELo: 0, PEHi: 1}), WithMembership(mem)); err == nil || !strings.Contains(err.Error(), "load-balanced") {
		t.Errorf("elastic membership with a load balancer: err %v, want a refusal", err)
	}
}

// idleStack builds a transport stack that never listens: enough for
// NewRuntime to accept and bind, with no traffic ever crossing it.
func idleStack(t *testing.T) *vmi.Stack {
	t.Helper()
	st, err := vmi.NewChainBuilder(0, map[int]string{}, func(int32) int { return 0 }).Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestCtxAccessorsAndBroadcast(t *testing.T) {
	topo := mustTopo(t, 2, 0)
	var hits atomic.Int64
	prog := &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: 4,
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, e EntryID, d any) {
					n := hits.Add(1)
					if ctx.Elem() != (ElemRef{Array: 0, Index: i}) || d != "hello" {
						t.Errorf("element %d got %v with %v", i, ctx.Elem(), d)
					}
					ctx.Charge(0) // no-op on the real-time runtime
					if n == 4 {
						ctx.Exit()
					}
				})
			},
		}},
		Start: func(ctx *Ctx) { ctx.Broadcast(0, 0, "hello") },
	}
	rt, err := NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rt.Run(); err != nil || v != nil {
		t.Fatalf("run: v=%v err=%v", v, err)
	}
	if hits.Load() != 4 {
		t.Errorf("broadcast reached %d elements", hits.Load())
	}
}
