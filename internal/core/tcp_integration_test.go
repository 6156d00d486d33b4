package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// tcpPair is a two-node run over the stack every multi-process runtime
// uses — a ChainBuilder stack with its reliability layer — on loopback
// TCP, started by StartCluster. Node n hosts PE n and has its own metrics
// registry, shared by its stack and runtime, so every run doubles as an
// observability check.
type tcpPair struct {
	*Cluster
	Regs [2]*metrics.Registry
	t    *testing.T
}

// newTCPPair starts the two nodes, both tuned with rel. mod, if non-nil,
// adds to node n's builder (fault devices, dial attempts); opts, if
// non-nil, returns node n's extra runtime options. The pair closes when
// the test ends.
func newTCPPair(t *testing.T, topo *topology.Topology, mkProg func(node int) *Program, rel vmi.ReliableConfig,
	mod func(node int, b *vmi.ChainBuilder), opts func(node int) []Option) *tcpPair {
	t.Helper()
	p := &tcpPair{Regs: [2]*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}, t: t}
	c, err := StartCluster(ClusterSpec{
		Topo:    topo,
		Nodes:   2,
		Program: func(node int) (*Program, error) { return mkProg(node), nil },
		Builder: func(node int, b *vmi.ChainBuilder) {
			b.Metrics(p.Regs[node]).Reliable(rel)
			if mod != nil {
				mod(node, b)
			}
		},
		Options: func(node int) []Option {
			o := []Option{WithMetrics(p.Regs[node])}
			if opts != nil {
				o = append(o, opts(node)...)
			}
			return o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p.Cluster = c
	return p
}

// RunWithin runs the pair as Cluster.Run does and fails the test if the
// run, the worker's stop included, takes longer than d: a node that never
// stops fails the test instead of hanging the suite. It must be called
// from the test's goroutine.
func (p *tcpPair) RunWithin(d time.Duration) (any, error) {
	p.t.Helper()
	type result struct {
		v   any
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := p.Run()
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		return r.v, r.err
	case <-time.After(d):
		p.t.Fatalf("pair did not finish within %v", d)
		return nil, nil
	}
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

	pair := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, nil)

	// Run stops the worker node once the coordinator returns, as
	// cmd/gridnode's shutdown announcement does, and reports its error.
	start := time.Now()
	v0, err := pair.RunWithin(30 * time.Second)
	var werr *NodeError
	if errors.As(err, &werr) {
		t.Errorf("worker node error: %v", werr.Err)
	} else if err != nil {
		t.Fatal(err)
	}
	if v0.(int) != 2*rounds {
		t.Errorf("coordinator result = %v, want %d", v0, 2*rounds)
	}
	// The exchange crossed the (delayed) TCP link 2*rounds times.
	if el := time.Since(start); el < time.Duration(2*rounds)*lat {
		t.Errorf("elapsed %v, want >= %v: WAN delay not applied on TCP path", el, time.Duration(2*rounds)*lat)
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
	pair := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, func(node int) []Option {
		return []Option{WithTrace(trs[node])}
	})
	if _, err := pair.RunWithin(30 * time.Second); err != nil {
		t.Fatal(err)
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
	nodes := newTCPPair(t, topo, mkProg, vmi.ReliableConfig{}, nil, nil).Nodes
	worker := make(chan error, 1)
	go func() {
		_, err := nodes[1].Runtime.Run()
		worker <- err
	}()
	coord := make(chan error, 1)
	go func() {
		_, err := nodes[0].Runtime.Run()
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
	nodes[1].Runtime.Stop()
	select {
	case <-worker:
	case <-time.After(5 * time.Second):
		t.Fatal("worker node never stopped")
	}
}

// mcastRun is a two-node multicast: element 0 (PE 0) multicasts a
// []float64 to a section of itself and the k elements on PE 1 once Start
// kicks it; every member contributes 1 to a sum that ends the run.
type mcastRun struct {
	k      int
	mu     sync.Mutex
	counts map[int]int      // deliveries per member
	bases  map[int]*float64 // the payload's backing array, per member
}

const (
	mcastKick EntryID = iota
	mcastData
)

func (r *mcastRun) program(int) *Program {
	n := r.k + 1
	refs := make([]ElemRef, n)
	for i := range refs {
		refs[i] = ElemRef{Array: 0, Index: i}
	}
	sec := NewSection(refs...)
	return &Program{
		Arrays: []ArraySpec{{
			ID: 0, N: n,
			Map: func(i, _ int) int { return min(i, 1) },
			New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) {
					if entry == mcastKick {
						ctx.Multicast(sec, mcastData, []float64{1, 2, 3})
						return
					}
					v := data.([]float64)
					r.mu.Lock()
					r.counts[i]++
					r.bases[i] = &v[0]
					r.mu.Unlock()
					ctx.Contribute(v[0], OpSum)
				})
			},
		}},
		Start:       func(ctx *Ctx) { ctx.Send(ElemRef{0, 0}, mcastKick, nil) },
		OnReduction: func(ctx *Ctx, _ ArrayID, _ int64, v any) { ctx.ExitWith(v) },
	}
}

// run starts the pair with opts on each node and checks the outcome every
// multicast must have: the sum over all members, and one delivery each.
func (r *mcastRun) run(t *testing.T, opts func(node int) []Option) *tcpPair {
	t.Helper()
	r.counts, r.bases = map[int]int{}, map[int]*float64{}
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	pair := newTCPPair(t, topo, r.program, vmi.ReliableConfig{}, nil, opts)
	v, err := pair.RunWithin(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != float64(r.k+1) {
		t.Errorf("sum over members = %v, want %d", v, r.k+1)
	}
	for i := 0; i <= r.k; i++ {
		if r.counts[i] != 1 {
			t.Errorf("member %d handled the payload %d times, want once", i, r.counts[i])
		}
	}
	return pair
}

// TestMulticastOneFramePerRemotePE: the k members one remote PE hosts
// cost one data frame, and each still counts as a processed message.
// They share the one value decoded from it.
func TestMulticastOneFramePerRemotePE(t *testing.T) {
	r := &mcastRun{k: 5}
	pair := r.run(t, nil)
	if s := pair.Nodes[0].Stack.Reliable().Stats(); s.DataSent != 1 {
		t.Errorf("node 0 sent %d data frames, want 1 for %d remote members", s.DataSent, r.k)
	}
	if got := pair.Regs[1].Snapshot().Value("core_msgs_processed_total"); got != int64(r.k) {
		t.Errorf("node 1 processed %d messages, want one per member (%d)", got, r.k)
	}
	for i := 2; i <= r.k; i++ {
		if r.bases[i] != r.bases[1] {
			t.Errorf("members 1 and %d on one PE got separately decoded payloads", i)
		}
	}
	if r.bases[1] == r.bases[0] {
		t.Error("the remote members got the sender's own slice")
	}
}

// TestMulticastMembersKeepTheirSpans: in a traced run each remote member
// keeps its own message ID through send, enqueue, begin and end, and each
// names the sending handler's message as its Parent.
func TestMulticastMembersKeepTheirSpans(t *testing.T) {
	r := &mcastRun{k: 4}
	trs := [2]*trace.Tracer{trace.New(2), trace.New(2)}
	r.run(t, func(node int) []Option { return []Option{WithTrace(trs[node])} })

	// The kick's ID: the first message element 0 begins on node 0.
	var kick uint64
	for _, ev := range trs[0].Events() {
		if ev.Kind == trace.EvBegin && ev.MsgKind == byte(KindApp) && ev.Arg2 == 0 {
			kick = ev.MsgID
			break
		}
	}
	if kick == 0 {
		t.Fatal("node 0 recorded no begin of element 0")
	}
	sent := map[uint64]bool{}
	for _, ev := range trs[0].Events() {
		if ev.Kind == trace.EvSend && ev.MsgKind == byte(KindApp) && ev.Arg1 == 1 {
			if ev.Parent != kick {
				t.Errorf("member send %#x has Parent %#x, want the kick %#x", ev.MsgID, ev.Parent, kick)
			}
			if sent[ev.MsgID] {
				t.Errorf("two member sends share ID %#x", ev.MsgID)
			}
			sent[ev.MsgID] = true
		}
	}
	if len(sent) != r.k {
		t.Fatalf("node 0 recorded %d member sends to PE 1, want %d", len(sent), r.k)
	}
	spans := map[uint64][3]int{} // enqueue, begin, end per ID
	begun := map[int64]bool{}
	for _, ev := range trs[1].Events() {
		if !sent[ev.MsgID] {
			continue
		}
		s := spans[ev.MsgID]
		switch ev.Kind {
		case trace.EvEnqueue:
			s[0]++
			if ev.Parent != kick {
				t.Errorf("member enqueue %#x has Parent %#x, want %#x", ev.MsgID, ev.Parent, kick)
			}
		case trace.EvBegin:
			s[1]++
			begun[ev.Arg2] = true
		case trace.EvEnd:
			s[2]++
		}
		spans[ev.MsgID] = s
	}
	for id := range sent {
		if spans[id] != [3]int{1, 1, 1} {
			t.Errorf("member %#x: enqueue/begin/end counts %v on node 1, want one each", id, spans[id])
		}
	}
	if len(begun) != r.k {
		t.Errorf("node 1 began %d distinct members, want %d", len(begun), r.k)
	}
}
