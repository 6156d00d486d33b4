package core

import (
	"strings"
	"testing"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// TestTwoNodeTCPRuntime wires two Runtimes (each hosting one PE of a
// two-cluster machine) through the real VMI TCP transport with the delay
// device injecting a 5ms WAN latency — the same pathway the Table 1/2
// "real latency" experiments use, compressed into one test process.
func TestTwoNodeTCPRuntime(t *testing.T) {
	const lat = 5 * time.Millisecond
	const rounds = 3
	topo, err := topology.TwoClusters(2, lat)
	if err != nil {
		t.Fatal(err)
	}

	mkProg := func() *Program {
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

	nodeOf := func(pe int) int { return pe } // one PE per node
	routeFn := func(pe int32) int { return int(pe) }

	var rts [2]*Runtime
	var tcps [2]*vmi.TCP
	addrs := []map[int]string{
		{0: "127.0.0.1:0", 1: ""},
		{0: "", 1: "127.0.0.1:0"},
	}
	for node := 0; node < 2; node++ {
		node := node
		tcps[node] = vmi.NewTCP(node, addrs[node], routeFn, func(f *vmi.Frame) error {
			return rts[node].InjectFrame(f)
		})
	}
	a0, err := tcps[0].Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := tcps[1].Listen()
	if err != nil {
		t.Fatal(err)
	}
	tcps[0].SetAddr(1, a1)
	tcps[1].SetAddr(0, a0)
	defer tcps[0].Close()
	defer tcps[1].Close()

	for node := 0; node < 2; node++ {
		rt, err := NewRuntime(topo, mkProg(),
			WithCluster(ClusterConfig{Transport: tcps[node], NodeOf: nodeOf, Node: node, PELo: node, PEHi: node + 1}))
		if err != nil {
			t.Fatal(err)
		}
		rts[node] = rt
	}

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

	mkProg := func() *Program {
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

	nodeOf := func(pe int) int { return pe }
	routeFn := func(pe int32) int { return int(pe) }

	var rts [2]*Runtime
	var tcps [2]*vmi.TCP
	var trs [2]*trace.Tracer
	addrs := []map[int]string{
		{0: "127.0.0.1:0", 1: ""},
		{0: "", 1: "127.0.0.1:0"},
	}
	for node := 0; node < 2; node++ {
		node := node
		trs[node] = trace.New(2)
		tcps[node] = vmi.NewTCP(node, addrs[node], routeFn, func(f *vmi.Frame) error {
			return rts[node].InjectFrame(f)
		})
	}
	a0, err := tcps[0].Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := tcps[1].Listen()
	if err != nil {
		t.Fatal(err)
	}
	tcps[0].SetAddr(1, a1)
	tcps[1].SetAddr(0, a0)
	defer tcps[0].Close()
	defer tcps[1].Close()

	for node := 0; node < 2; node++ {
		rt, err := NewRuntime(topo, mkProg(),
			WithTrace(trs[node]),
			WithCluster(ClusterConfig{Transport: tcps[node], NodeOf: nodeOf, Node: node, PELo: node, PEHi: node + 1}))
		if err != nil {
			t.Fatal(err)
		}
		rts[node] = rt
	}

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
	mkProg := func() *Program {
		return &Program{
			Arrays: []ArraySpec{{ID: 0, N: 2, New: func(i int) Chare {
				return funcChare(func(ctx *Ctx, entry EntryID, data any) { ctx.ExitWith(data) })
			}}},
			// Element 1 lives on node 1.
			Start: func(ctx *Ctx) { ctx.Send(ElemRef{0, 1}, 0, unregisteredPayload{Name: "lost", Count: 1}) },
		}
	}
	nodeOf := func(pe int) int { return pe }
	routeFn := func(pe int32) int { return int(pe) }
	var rts [2]*Runtime
	var tcps [2]*vmi.TCP
	for node := 0; node < 2; node++ {
		node := node
		tcps[node] = vmi.NewTCP(node, map[int]string{node: "127.0.0.1:0"}, routeFn, func(f *vmi.Frame) error {
			return rts[node].InjectFrame(f)
		})
		defer tcps[node].Close()
	}
	a0, err := tcps[0].Listen()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := tcps[1].Listen()
	if err != nil {
		t.Fatal(err)
	}
	tcps[0].SetAddr(1, a1)
	tcps[1].SetAddr(0, a0)
	for node := 0; node < 2; node++ {
		rts[node], err = NewRuntime(topo, mkProg(),
			WithCluster(ClusterConfig{Transport: tcps[node], NodeOf: nodeOf, Node: node, PELo: node, PEHi: node + 1}))
		if err != nil {
			t.Fatal(err)
		}
	}
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
