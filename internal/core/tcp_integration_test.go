package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// tcpPair is a two-node run over the stack every multi-process runtime
// uses — a ChainBuilder stack with its reliability layer — on loopback
// TCP. Node n hosts PE n and has its own metrics registry, shared by its
// stack and runtime, so every run doubles as an observability check.
type tcpPair struct {
	Stacks [2]*vmi.Stack
	Regs   [2]*metrics.Registry
	RTs    [2]*Runtime
}

// newTCPPair builds, joins and binds the two nodes, both tuned with rel.
// mod, if non-nil, adds to node n's builder (fault devices, dial
// attempts); opts, if non-nil, returns node n's extra runtime options.
// The stacks close when the test ends.
func newTCPPair(t *testing.T, topo *topology.Topology, mkProg func(node int) *Program, rel vmi.ReliableConfig,
	mod func(node int, b *vmi.ChainBuilder), opts func(node int) []Option) *tcpPair {
	t.Helper()
	p := &tcpPair{}
	routeFn := func(pe int32) int { return int(pe) }
	for node := 0; node < 2; node++ {
		p.Regs[node] = metrics.NewRegistry()
		b := vmi.NewChainBuilder(node, map[int]string{node: "127.0.0.1:0"}, routeFn).
			Metrics(p.Regs[node]).
			Reliable(rel)
		if mod != nil {
			mod(node, b)
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p.Stacks[node] = st
		t.Cleanup(func() { st.Close() })
	}
	a0, err := p.Stacks[0].Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.Stacks[1].Listen()
	if err != nil {
		t.Fatal(err)
	}
	p.Stacks[0].SetAddr(1, a1)
	p.Stacks[1].SetAddr(0, a0)
	for node := 0; node < 2; node++ {
		o := []Option{WithCluster(ClusterConfig{Transport: p.Stacks[node],
			NodeOf: func(pe int) int { return pe }, Node: node, PELo: node, PEHi: node + 1}),
			WithMetrics(p.Regs[node])}
		if opts != nil {
			o = append(o, opts(node)...)
		}
		rt, err := NewRuntime(topo, mkProg(node), o...)
		if err != nil {
			t.Fatal(err)
		}
		p.RTs[node] = rt
	}
	return p
}

// TestTwoNodeTCPRuntime wires two Runtimes (each hosting one PE of a
// two-cluster machine) through ChainBuilder stacks on real TCP with the
// delay device injecting a 5ms WAN latency — the same pathway the Table
// 1/2 "real latency" experiments use, compressed into one test process.
func TestTwoNodeTCPRuntime(t *testing.T) {
	const lat = 5 * time.Millisecond
	const rounds = 3
	topo, err := topology.TwoClusters(2, lat)
	if err != nil {
		t.Fatal(err)
	}

	mkProg := func(int) *Program {
		return &Program{
			Arrays: []ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) Chare {
					return funcChare(func(ctx *Ctx, entry EntryID, data any) {
						n := data.(int)
						if n >= 2*rounds {
							// Ends on element 0 (node 0) because 2*rounds is even.
							ctx.ExitWith(n)
							return
						}
						ctx.Send(ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n+1)
					})
				},
			}},
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 0) },
		}
	}

	rts := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, nil).RTs

	type result struct {
		v   any
		err error
	}
	res := make(chan result, 2)
	start := time.Now()
	go func() {
		v, err := rts[1].Run()
		res <- result{v, err}
	}()
	v0, err := rts[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	if v0.(int) != 2*rounds {
		t.Errorf("coordinator result = %v, want %d", v0, 2*rounds)
	}
	// The exchange crossed the (delayed) TCP link 2*rounds times.
	if el := time.Since(start); el < time.Duration(2*rounds)*lat {
		t.Errorf("elapsed %v, want >= %v: WAN delay not applied on TCP path", el, time.Duration(2*rounds)*lat)
	}
	// Coordinator announces shutdown (as cmd/gridnode does).
	rts[1].Stop()
	select {
	case r := <-res:
		if r.err != nil {
			t.Errorf("worker node error: %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker node never stopped")
	}
}

// TestTwoNodeTCPCausality runs the same two-node ping-pong with a tracer on
// each node and checks that causal trace context survives the TCP hop: the
// enqueue and begin events recorded on the remote node carry the message ID
// the sending node assigned (node 0 seeds IDs with high bits 0, node 1 with
// node<<48, so provenance is visible in the ID itself).
func TestTwoNodeTCPCausality(t *testing.T) {
	const rounds = 3
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}

	mkProg := func(int) *Program {
		return &Program{
			Arrays: []ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) Chare {
					return funcChare(func(ctx *Ctx, entry EntryID, data any) {
						n := data.(int)
						if n >= 2*rounds {
							ctx.ExitWith(n)
							return
						}
						ctx.Send(ElemRef{Array: 0, Index: 1 - ctx.Elem().Index}, 0, n+1)
					})
				},
			}},
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, 0, 0) },
		}
	}

	trs := [2]*trace.Tracer{trace.New(2), trace.New(2)}
	rts := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, func(node int) []Option {
		return []Option{WithTrace(trs[node])}
	}).RTs

	done := make(chan error, 1)
	go func() {
		_, err := rts[1].Run()
		done <- err
	}()
	if _, err := rts[0].Run(); err != nil {
		t.Fatal(err)
	}
	rts[1].Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker node: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker node never stopped")
	}

	// IDs assigned on node 0 have high bits 0; on node 1, 1<<48.
	fromNode := func(id uint64) int { return int(id >> 48) }

	sent0 := map[uint64]bool{}
	for _, ev := range trs[0].Events() {
		if ev.Kind == trace.EvSend && ev.MsgID != 0 {
			sent0[ev.MsgID] = true
		}
	}
	if len(sent0) == 0 {
		t.Fatal("node 0 recorded no sends")
	}

	var remoteEnq, remoteBegin int
	for _, ev := range trs[1].Events() {
		if ev.MsgID == 0 || fromNode(ev.MsgID) != 0 {
			continue // locally assigned or untraced
		}
		switch ev.Kind {
		case trace.EvEnqueue:
			remoteEnq++
			if !sent0[ev.MsgID] {
				t.Errorf("remote enqueue carries ID %#x never sent by node 0", ev.MsgID)
			}
		case trace.EvBegin:
			remoteBegin++
			if !sent0[ev.MsgID] {
				t.Errorf("remote begin carries ID %#x never sent by node 0", ev.MsgID)
			}
		}
	}
	if remoteEnq < rounds || remoteBegin < rounds {
		t.Errorf("node 1 saw %d enqueues / %d begins with node-0 IDs, want >= %d each",
			remoteEnq, remoteBegin, rounds)
	}
}

// TestTwoNodeUnregisteredPayloadFailsRun: sending a payload type nobody
// registered to an element on another node must end the sender's run with
// an error that names the type: there is no self-describing fallback, and
// silently dropping the message would leave both nodes waiting for it.
func TestTwoNodeUnregisteredPayloadFailsRun(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	mkProg := func(int) *Program {
		return &Program{
			Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) { ctx.ExitWith(data) })
			}}},
			// Element 1 lives on node 1.
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 1}, 0, unregisteredPayload{Name: "lost", Count: 1}) },
		}
	}
	rts := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, nil).RTs
	worker := make(chan error, 1)
	go func() {
		_, err := rts[1].Run()
		worker <- err
	}()
	coord := make(chan error, 1)
	go func() {
		_, err := rts[0].Run()
		coord <- err
	}()
	select {
	case err := <-coord:
		if err == nil || !strings.Contains(err.Error(), "core.unregisteredPayload") {
			t.Errorf("coordinator run: err = %v, want one naming core.unregisteredPayload", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung on a payload it could not encode")
	}
	rts[1].Stop()
	select {
	case <-worker:
	case <-time.After(5 * time.Second):
		t.Fatal("worker node never stopped")
	}
}

// TestTwoNodeBundlesSurviveRecycling sends bundles across the wire: every
// handler ships a burst of three messages to the element on the other
// node, which leave as one bundle and are recycled once encoded. After
// 1,200 messages every value must have arrived once, in order.
func TestTwoNodeBundlesSurviveRecycling(t *testing.T) {
	const burst, bursts = 3, 400 // an even count ends the run on node 0
	topo, err := topology.Single(2)
	if err != nil {
		t.Fatal(err)
	}
	var wrong atomic.Int64
	mkProg := func(int) *Program {
		sendBurst := func(ctx *Ctx, to, from int) {
			for v := from; v < from+burst; v++ {
				ctx.Send(ElemRef{0, to}, 0, v)
			}
		}
		return &Program{
			Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
				want := burst * (1 - i) // element 1 receives burst 0, element 0 burst 1
				return funcChare(func(ctx *Ctx, _ EntryID, data any) {
					v := data.(int)
					if v != want {
						wrong.Add(1)
					}
					want = v + 1
					if want%burst != 0 {
						return
					}
					want += burst // the next burst goes the other way
					if v+1 == burst*bursts {
						ctx.Exit()
						return
					}
					sendBurst(ctx, 1-i, v+1)
				})
			}}},
			Start: func(ctx *Ctx) { sendBurst(ctx, 1, 0) },
		}
	}
	pair := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil,
		func(int) []Option { return []Option{WithBundling()} })
	rts := pair.RTs
	worker := make(chan error, 1)
	go func() {
		_, err := rts[1].Run()
		worker <- err
	}()
	if _, err := rts[0].Run(); err != nil {
		t.Fatal(err)
	}
	rts[1].Stop()
	if err := <-worker; err != nil {
		t.Fatal(err)
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d messages arrived out of order or changed", n)
	}
	// Node 0 sends half the bursts; unbundled, that is one frame per
	// message before any ack.
	sent := bursts / 2 * burst
	if got := pair.Regs[0].Snapshot().Value("vmi_tcp_frames_out_total"); got >= int64(sent) {
		t.Errorf("node 0 wrote %v frames for %d messages: the bursts were not bundled", got, sent)
	}
}
