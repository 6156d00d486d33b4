package core

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// The per-message budget of DESIGN.md §4, pinned: what a message nobody
// observes may cost, and what an observed one must still deliver.

func singlePE(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.Single(1)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestUnobservedLocalMessageAllocs drives the real scheduler loop on the
// test goroutine over a relay between two elements of one PE and counts
// allocations. A local message is Ctx.Send -> Route -> PE queue ->
// scheduler -> DeliverApp -> handler; with no sink, registry or load
// balancer attached it allocates nothing: its Message comes from the pool
// the scheduler returned the previous one to (the relay forwards the
// payload it was handed, so nothing is boxed).
func TestUnobservedLocalMessageAllocs(t *testing.T) {
	var rt *Runtime
	left := 0
	relay := funcChare(func(ctx *Ctx, _ EntryID, data any) {
		if left == 0 {
			rt.pes[0].q.Push(&Message{Kind: KindStop, Prio: math.MinInt32})
			return
		}
		left--
		ctx.Send(ElemRef{0, 1 - ctx.Elem().Index}, 0, data)
	})
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(int) Chare { return relay }}},
		Start:  func(*Ctx) {},
	}
	rt, err := NewRuntime(singlePE(t), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.dly.Close()
	perRun := func(msgs int) float64 {
		return testing.AllocsPerRun(20, func() {
			left = msgs
			rt.Post(ElemRef{0, 0}, 0, nil)
			rt.wg.Add(1)
			rt.schedule(rt.pes[0])
		})
	}
	// The difference of two run lengths cancels what a run costs by itself
	// (the stop message, the scheduler's batch). Exactly 0 in a plain
	// build. Under the race detector sync.Pool drops a quarter of its Puts
	// by design, so a quarter of the messages are allocated afresh, and the
	// detector's own bookkeeping adds one every hundred messages or so.
	got := (perRun(300) - perRun(100)) / 200
	if want := 0.0; !raceEnabled && got != want {
		t.Errorf("an unobserved local message costs %v allocations, want %v", got, want)
	}
	if raceEnabled && got > 0.35 {
		t.Errorf("an unobserved local message costs %v allocations under the race detector, want about 0.25", got)
	}
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestUnobservedRemoteMessageAllocs is the remote sibling: a ping-pong
// between two single-PE nodes joined by the ChainBuilder stack on
// loopback TCP, over a zero-latency link, with neither runtime observed.
// A remote message allocates nothing. Every object on its way recycles:
// the sender's Message once its frame body is encoded, the vmi.Frame that
// carries it through the delay device once the stack has copied it, the
// reliability layer's sealed body and retransmit entry (with the wire
// frame inside it) once the ack arrives, and the receiver's Message once
// its handler returns.
func TestUnobservedRemoteMessageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP")
	}
	topo, err := topology.Single(2)
	if err != nil {
		t.Fatal(err)
	}
	checkRemoteAllocs(t, topo, 1000, 3000)
}

// TestUnobservedWANMessageAllocs is the same ping-pong over a 50 µs link,
// so that every frame waits in the delay device's heap: holding a frame
// and releasing it when due allocates nothing either.
func TestUnobservedWANMessageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP")
	}
	topo, err := topology.TwoClusters(2, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	checkRemoteAllocs(t, topo, 300, 900)
}

// checkRemoteAllocs runs the two-node ping-pong on topo with from and then
// to trips per element, and checks what one remote message allocates.
func checkRemoteAllocs(t *testing.T, topo *topology.Topology, from, to int) {
	t.Helper()
	// run returns the process's allocations over one job in which each
	// element handles trips messages; the next one exits node 0.
	run := func(trips int) uint64 {
		mkProg := func(int) *Program {
			return &Program{
				Arrays: []ArraySpec{{ID: 0, N: 2, New: func(int) Chare {
					left := trips
					return funcChare(func(ctx *Ctx, _ EntryID, data any) {
						if left == 0 {
							ctx.Exit()
							return
						}
						left--
						ctx.Send(ElemRef{0, 1 - ctx.Elem().Index}, 0, data)
					})
				}}},
				Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
			}
		}
		// The pair attaches a registry to each runtime; drop it, so that
		// no sink observes the messages.
		unobserved := func(int) []Option { return []Option{WithMetrics(nil)} }
		rts := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, unobserved).RTs
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		done := make(chan error, 1)
		go func() {
			_, err := rts[1].Run()
			done <- err
		}()
		if _, err := rts[0].Run(); err != nil {
			t.Fatal(err)
		}
		rts[1].Stop()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	// A first run fills the pools; then the difference of two run lengths
	// cancels dialing, construction and shutdown, and 2 × (to − from)
	// messages separate the runs. The transport's and the test's other
	// goroutines allocate a few times per run at random, hence the margin,
	// far below one allocation per message.
	//
	// Under the race detector every sync.Pool drops a quarter of its Puts,
	// so each pooled object a message draws is allocated afresh a quarter
	// of the time. A message draws six: a Message on each side, the
	// sender's encode buffer, the delay-device frame, and the reliability
	// layer's body buffer and retransmit entry. That is 1.5 per message.
	run(from) // fill the pools every message draws from
	got := float64(int64(run(to))-int64(run(from))) / float64(2*(to-from))
	t.Logf("%.3f allocations per remote message", got)
	if want := 0.0; !raceEnabled && math.Abs(got-want) > 0.05 {
		t.Errorf("an unobserved remote message costs %.3f allocations, want %v", got, want)
	}
	if raceEnabled && got > 1.75 {
		t.Errorf("an unobserved remote message costs %.3f allocations under the race detector, want about 1.5", got)
	}
}

// eventLog is a trace.Sink that keeps every event.
type eventLog struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (l *eventLog) Record(ev trace.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// TestObservedMessageLifecycle attaches a sink and a registry to a
// three-message chain on one PE and checks that observation lost nothing
// to the unobserved fast path: the exact event stream (kinds, order,
// causal IDs), a timestamp on every event, and the scheduler's series.
func TestObservedMessageLifecycle(t *testing.T) {
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
			return funcChare(func(ctx *Ctx, _ EntryID, _ any) {
				if i == 0 {
					ctx.Send(ElemRef{0, 1}, 0, nil)
				} else {
					ctx.Exit()
				}
			})
		}}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
	}
	log := &eventLog{}
	reg := metrics.NewRegistry()
	rt, err := NewRuntime(singlePE(t), prog, WithSink(log), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	type step struct {
		kind       trace.Kind
		id, parent uint64
	}
	// Message 1 is the start message, 2 Start's send, 3 element 0's send.
	// EvBegin and EvEnd carry no parent.
	want := []step{
		{trace.EvEnqueue, 1, 0}, {trace.EvBegin, 1, 0},
		{trace.EvSend, 2, 1}, {trace.EvEnqueue, 2, 1}, {trace.EvEnd, 1, 0},
		{trace.EvBegin, 2, 0},
		{trace.EvSend, 3, 2}, {trace.EvEnqueue, 3, 2}, {trace.EvEnd, 2, 0},
		{trace.EvBegin, 3, 0}, {trace.EvEnd, 3, 0},
	}
	var got []trace.Event
	for _, ev := range log.evs {
		if ev.Kind != trace.EvIdle { // idle gaps depend on goroutine start-up timing
			got = append(got, ev)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(got), len(want), got)
	}
	var last time.Duration
	for i, ev := range got {
		w := want[i]
		if ev.Kind != w.kind || ev.MsgID != w.id || ev.Parent != w.parent {
			t.Errorf("event %d = {kind %d id %d parent %d}, want {kind %d id %d parent %d}",
				i, ev.Kind, ev.MsgID, ev.Parent, w.kind, w.id, w.parent)
		}
		if ev.At <= 0 || ev.At < last {
			t.Errorf("event %d stamped %v after %v: every event carries the clock, in order", i, ev.At, last)
		}
		last = ev.At
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"core_handler_nanos":        3, // histogram: observation count
		"core_msgs_enqueued_total":  3,
		"core_msgs_processed_total": 3,
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if !snap.Has("core_idle_nanos_total") {
		t.Error("core_idle_nanos_total missing")
	}
}

// TestEnqueuedAtStampedOnlyWhenObserved checks the one Message field the
// fast path leaves unset.
func TestEnqueuedAtStampedOnlyWhenObserved(t *testing.T) {
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare { return funcChare(func(*Ctx, EntryID, any) {}) }}},
		Start:  func(*Ctx) {},
	}
	for _, observed := range []bool{false, true} {
		var opts []Option
		if observed {
			opts = append(opts, WithSink(&eventLog{}))
		}
		rt, err := NewRuntime(singlePE(t), prog, opts...)
		if err != nil {
			t.Fatal(err)
		}
		m := &Message{Kind: KindApp, To: ElemRef{0, 0}}
		rt.enqueueLocal(m)
		if (m.EnqueuedAt != 0) != observed {
			t.Errorf("observed=%v: EnqueuedAt = %v", observed, m.EnqueuedAt)
		}
		rt.dly.Close()
	}
}

// loadProbe is an LB strategy that keeps the statistics it was shown.
type loadProbe struct{ elems []ElemLoad }

func (*loadProbe) Name() string { return "load-probe" }
func (p *loadProbe) Plan(s *LBStats) []Move {
	p.elems = append([]ElemLoad(nil), s.Elems...)
	return nil
}

// TestLBStillMeasuresElementLoad: handler wall time is read only when a
// load balancer is configured — and then it must reach the strategy.
func TestLBStillMeasuresElementLoad(t *testing.T) {
	const busy = 2 * time.Millisecond
	probe := &loadProbe{}
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 2, New: func(int) Chare {
			return &migChare{fn: func(ctx *Ctx, entry EntryID, _ any) {
				switch entry {
				case 0:
					for from := time.Now(); time.Since(from) < busy; {
					}
					// A handler's time is credited when it returns, so the
					// sync is entered from the next one.
					ctx.Send(ctx.Elem(), 1, nil)
				case 1:
					ctx.AtSync()
				case EntryResumeFromSync:
					ctx.Contribute(1.0, OpSum)
				}
			}}
		}}},
		Start: func(ctx *Ctx) {
			ctx.Send(ElemRef{0, 0}, 0, nil)
			ctx.Send(ElemRef{0, 1}, 0, nil)
		},
		OnReduction: func(ctx *Ctx, _ ArrayID, _ int64, v any) { ctx.ExitWith(v) },
		LB:          &LBConfig{Arrays: []ArrayID{0}, Strategy: probe},
	}
	rt, err := NewRuntime(mustTopo(t, 2, 0), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(probe.elems) != 2 {
		t.Fatalf("strategy saw %d elements, want 2", len(probe.elems))
	}
	for _, e := range probe.elems {
		if e.Load < busy {
			t.Errorf("element %v measured load %v, want at least the %v it was busy", e.Ref, e.Load, busy)
		}
	}
}

// TestRetainedCtxPanics: a PE reuses one Ctx for every element handler, so
// a chare that keeps the Ctx it was handed must not be able to send in
// another element's name. Between handlers the Ctx is retired and any use
// panics with a message that names the mistake.
func TestRetainedCtxPanics(t *testing.T) {
	var kept *Ctx
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 1, New: func(int) Chare {
			return funcChare(func(ctx *Ctx, _ EntryID, _ any) {
				kept = ctx
				ctx.Exit()
			})
		}}},
		Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, nil) },
	}
	rt, err := NewRuntime(singlePE(t), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for name, use := range map[string]func(){
		"Send": func() { kept.Send(ElemRef{0, 0}, 0, nil) },
		"Time": func() { kept.Time() },
		"Exit": func() { kept.Exit() },
	} {
		func() {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, "Ctx used after the handler") {
					t.Errorf("%s on a retained Ctx: recovered %v, want the retained-Ctx panic", name, r)
				}
			}()
			use()
		}()
	}
	if sent, processed := rt.Counters(); sent != processed {
		t.Errorf("a refused send was counted: sent %d, processed %d", sent, processed)
	}
}
