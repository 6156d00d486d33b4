package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// Cross-executor conformance: a randomly generated (but deterministic,
// per seed) message-driven program must produce identical observable
// results — handler invocation counts per element and entry, and the
// final reduction value — on the virtual-time engine, on the one-process
// real-time runtime and on a two-node cluster over TCP. This pins the
// shared semantics the whole reproduction rests on: the executors may
// schedule differently in time, but never in effect. The program
// multicasts to a section with at least two members on every PE, so the
// two-node run sends each of its multicasts to the other node as one
// KindMulticast message per destination PE.

// confChare forwards tokens around a seeded pseudo-random graph. Each
// token carries a hop budget; on arrival the chare burns one hop and
// forwards to a seed-determined next element, and at hop confMcastHop it
// also multicasts the token's value to the section. A dying token and a
// multicast arrival each add their value to the chare's accumulator; once
// the chare has seen every arrival the replay predicts, it contributes.
type confChare struct {
	n       int
	idx     int
	acc     float64
	expect  int // dying tokens and multicasts to see before contributing
	seen    int
	sec     *core.Section
	counter *invocationCounter
}

// invocationCounter counts handler invocations per (element, entry).
type invocationCounter struct {
	mu     sync.Mutex
	counts map[[2]int]int
}

func newInvocationCounter() *invocationCounter {
	return &invocationCounter{counts: make(map[[2]int]int)}
}

func (ic *invocationCounter) bump(idx int, entry core.EntryID) {
	ic.mu.Lock()
	ic.counts[[2]int{idx, int(entry)}]++
	ic.mu.Unlock()
}

type confToken struct {
	Hops int
	Rng  int64 // evolving per-token seed: next destination = f(Rng)
	Val  float64
}

// PUP makes confToken a wire payload for the two-node run.
func (t *confToken) PUP(p *core.PUP) {
	core.PUPVarint(p, &t.Hops)
	p.Varint(&t.Rng)
	p.Float64(&t.Val)
}

func init() { core.RegisterPayload[confToken](202) }

// confMcastHop is the remaining hop budget at which a token's holder
// multicasts to the section.
const confMcastHop = 30

// Entries of confChare.
const (
	confEntryToken core.EntryID = iota
	confEntryKick               // no arrival expected: contribute now
	confEntryMcast
)

func (c *confChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	if entry == confEntryKick {
		ctx.Contribute(c.acc, core.OpSum)
		return
	}
	c.counter.bump(c.idx, entry)
	t := data.(confToken)
	if entry == confEntryMcast {
		c.arrive(ctx, t.Val)
		return
	}
	if t.Hops == confMcastHop {
		ctx.Multicast(c.sec, confEntryMcast, confToken{Val: t.Val})
	}
	if t.Hops <= 0 {
		// Only terminal values accumulate: pass-through contributions
		// would race with the kick and differ across executors.
		c.arrive(ctx, t.Val)
		return
	}
	// Deterministic next hop and value evolution.
	next := int(uint64(t.Rng) % uint64(c.n))
	ctx.Send(core.ElemRef{Array: 0, Index: next}, confEntryToken, confToken{
		Hops: t.Hops - 1,
		Rng:  t.Rng*6364136223846793005 + 1442695040888963407,
		Val:  t.Val * 0.99,
	})
}

// arrive accumulates one predicted arrival and contributes after the last.
func (c *confChare) arrive(ctx *core.Ctx, v float64) {
	c.acc += v
	c.seen++
	if c.seen == c.expect {
		ctx.Contribute(c.acc, core.OpSum)
	}
}

// buildConformance creates the program for a seed. Arrival counts per
// element are precomputed by replaying the deterministic walks.
func buildConformance(seed int64, n, tokens, hops int, counter *invocationCounter) *core.Program {
	rng := rand.New(rand.NewSource(seed))
	// Every element but one in three: with block placement over at most
	// n/4 PEs, each PE hosts at least two members.
	sec := &core.Section{}
	skip := rng.Intn(3)
	for i := 0; i < n; i++ {
		if i%3 != skip {
			sec.Members = append(sec.Members, core.ElemRef{Array: 0, Index: i})
		}
	}
	starts := make([]confToken, tokens)
	startIdx := make([]int, tokens)
	for i := range starts {
		starts[i] = confToken{Hops: hops, Rng: rng.Int63(), Val: 1}
		startIdx[i] = rng.Intn(n)
	}
	// Replay the walks to know how many arrivals each element sees.
	expect := make(map[int]int)
	for i, t := range starts {
		cur := startIdx[i]
		for ; ; t.Hops-- {
			if t.Hops == confMcastHop {
				for _, m := range sec.Members {
					expect[m.Index]++
				}
			}
			if t.Hops == 0 {
				break
			}
			cur = int(uint64(t.Rng) % uint64(n))
			t.Rng = t.Rng*6364136223846793005 + 1442695040888963407
		}
		expect[cur]++
	}
	return &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare {
				return &confChare{n: n, idx: i, expect: expect[i], sec: sec, counter: counter}
			},
		}},
		Start: func(ctx *core.Ctx) {
			for i := range starts {
				ctx.Send(core.ElemRef{Array: 0, Index: startIdx[i]}, confEntryToken, starts[i])
			}
			for i := 0; i < n; i++ {
				if expect[i] == 0 {
					ctx.Send(core.ElemRef{Array: 0, Index: i}, confEntryKick, nil)
				}
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) {
			ctx.ExitWith(v)
		},
	}
}

// mcastTap counts the KindMulticast messages a node sends to the other.
type mcastTap struct{ n atomic.Int64 }

func (*mcastTap) Name() string { return "mcast-tap" }

func (tap *mcastTap) Send(f *vmi.Frame, next vmi.SendFunc) error {
	if _, body, err := vmi.DecodeRelHeader(f.Body); err == nil && len(body) > 0 {
		if m, err := core.DecodeMessage(body); err == nil && m.Kind == core.KindMulticast {
			tap.n.Add(1)
		}
	}
	return next(f)
}

// TestCrossExecutorConformance compares the engine with the one-process
// runtime and the two-node TCP cluster. The subtests keep the
// bundle=false prefix of the plain-engine rows they continue.
func TestCrossExecutorConformance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		t.Run(fmt.Sprintf("bundle=false/seed=%d", seed), func(t *testing.T) {
			runConformance(t, seed)
		})
	}
}

func runConformance(t *testing.T, seed int64) {
	const n, tokens, hops = 24, 10, 60
	topo, err := topology.TwoClusters(6, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	simCounter := newInvocationCounter()
	e, err := New(topo, buildConformance(seed, n, tokens, hops, simCounter), Options{MaxEvents: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	simV, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	rtCounter := newInvocationCounter()
	rt, err := core.NewRuntime(topo, buildConformance(seed, n, tokens, hops, rtCounter))
	if err != nil {
		t.Fatal(err)
	}
	rtV, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}

	tcpCounter := newInvocationCounter()
	var taps [2]mcastTap
	c, err := core.StartCluster(core.ClusterSpec{
		Topo:    topo,
		Nodes:   2,
		Program: func(int) (*core.Program, error) { return buildConformance(seed, n, tokens, hops, tcpCounter), nil },
		Builder: func(node int, b *vmi.ChainBuilder) { b.Faults(&taps[node]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A lost member would leave the reduction waiting: bound the run.
	type result struct {
		v   any
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := c.Run()
		done <- result{v, err}
	}()
	var tcpV any
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		tcpV = r.v
	case <-time.After(time.Minute):
		t.Fatal("two-node run did not finish within a minute")
	}
	// Each multicast reaches the other node's PEs, every one hosting at
	// least two members, as one KindMulticast message per PE (a
	// retransmit passes the tap again, so this is a floor).
	perNode := topo.NumPE() / 2
	if got := taps[0].n.Load() + taps[1].n.Load(); got < int64(tokens*perNode) {
		t.Errorf("two-node run sent %d KindMulticast messages, want at least %d", got, tokens*perNode)
	}

	for _, leg := range []struct {
		name    string
		v       any
		counter *invocationCounter
	}{{"realtime", rtV, rtCounter}, {"two-node", tcpV, tcpCounter}} {
		// The reduction value must agree (sum of token value decay is
		// order-independent up to float association; the walks are
		// identical, so the per-element sums are identical too).
		sv, v := simV.(float64), leg.v.(float64)
		if diff := sv - v; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("reduction differs: sim=%v %s=%v", sv, leg.name, v)
		}
		// Handler invocation counts per element and entry must match
		// exactly.
		if len(simCounter.counts) != len(leg.counter.counts) {
			t.Errorf("%s: %d (element, entry) pairs invoked, sim %d", leg.name, len(leg.counter.counts), len(simCounter.counts))
		}
		for k, want := range simCounter.counts {
			if got := leg.counter.counts[k]; got != want {
				t.Errorf("element %d entry %d: sim %d invocations, %s %d", k[0], k[1], want, leg.name, got)
			}
		}
	}
}
