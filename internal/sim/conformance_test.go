package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// Cross-executor conformance: a randomly generated (but deterministic,
// per seed) message-driven program must produce identical observable
// results — handler invocation counts per element and the final reduction
// value — on the virtual-time engine and on the real-time runtime. This
// pins the shared semantics the whole reproduction rests on: the two
// executors may schedule differently in time, but never in effect.

// confChare forwards tokens around a seeded pseudo-random graph. Each
// token carries a hop budget; on arrival the chare burns one hop,
// accumulates a value, and forwards to a seed-determined next element.
// When a token dies the chare contributes its accumulated value.
type confChare struct {
	n       int
	idx     int
	acc     float64
	tokens  int // tokens this element must see die before contributing
	deaths  int
	counter *invocationCounter
}

type invocationCounter struct {
	mu     sync.Mutex
	counts map[int]int
}

func (ic *invocationCounter) bump(idx int) {
	ic.mu.Lock()
	ic.counts[idx]++
	ic.mu.Unlock()
}

type confToken struct {
	Hops int
	Rng  int64 // evolving per-token seed: next destination = f(Rng)
	Val  float64
}

func (c *confChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	if entry == 1 {
		// No token dies here: contribute the (possibly zero) pass-through
		// accumulation right away.
		ctx.Contribute(c.acc, core.OpSum)
		return
	}
	c.counter.bump(c.idx)
	t := data.(confToken)
	if t.Hops <= 0 {
		// Only terminal values accumulate: pass-through contributions
		// would race with the entry-1 kick and differ across executors.
		c.acc += t.Val
		c.deaths++
		if c.deaths == c.tokens {
			ctx.Contribute(c.acc, core.OpSum)
		}
		return
	}
	// Deterministic next hop and value evolution.
	next := int(uint64(t.Rng) % uint64(c.n))
	ctx.Send(core.ElemRef{Array: 0, Index: next}, 0, confToken{
		Hops: t.Hops - 1,
		Rng:  t.Rng*6364136223846793005 + 1442695040888963407,
		Val:  t.Val * 0.99,
	})
}

// buildConformance creates the program for a seed. Token death counts per
// element are precomputed by replaying the deterministic walk.
func buildConformance(seed int64, n, tokens, hops int, counter *invocationCounter) *core.Program {
	// Replay the walks to know how many tokens die at each element.
	deaths := make(map[int]int)
	rng := rand.New(rand.NewSource(seed))
	starts := make([]confToken, tokens)
	startIdx := make([]int, tokens)
	for i := range starts {
		starts[i] = confToken{Hops: hops, Rng: rng.Int63(), Val: 1}
		startIdx[i] = rng.Intn(n)
	}
	for i, t := range starts {
		cur := startIdx[i]
		for t.Hops > 0 {
			cur = int(uint64(t.Rng) % uint64(n))
			t.Rng = t.Rng*6364136223846793005 + 1442695040888963407
			t.Hops--
		}
		deaths[cur]++
	}
	return &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare {
				return &confChare{n: n, idx: i, tokens: deaths[i], counter: counter}
			},
		}},
		Start: func(ctx *core.Ctx) {
			for i := range starts {
				ctx.Send(core.ElemRef{Array: 0, Index: startIdx[i]}, 0, starts[i])
			}
			// Elements where no token dies contribute immediately.
			for i := 0; i < n; i++ {
				if deaths[i] == 0 {
					ctx.Send(core.ElemRef{Array: 0, Index: i}, 1, nil)
				}
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) {
			ctx.ExitWith(v)
		},
	}
}

// TestCrossExecutorConformance compares the engine, plain and bundled,
// against the real-time runtime, which never bundles.
func TestCrossExecutorConformance(t *testing.T) {
	for _, bundle := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 42, 1234} {
			bundle, seed := bundle, seed
			t.Run(fmt.Sprintf("bundle=%v/seed=%d", bundle, seed), func(t *testing.T) {
				runConformance(t, seed, bundle)
			})
		}
	}
}

func runConformance(t *testing.T, seed int64, bundle bool) {
	const n, tokens, hops = 24, 10, 60
	topo, err := topology.TwoClusters(6, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	simCounter := &invocationCounter{counts: make(map[int]int)}
	e, err := New(topo, buildConformance(seed, n, tokens, hops, simCounter), Options{MaxEvents: 10_000_000, Bundle: bundle})
	if err != nil {
		t.Fatal(err)
	}
	simV, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	rtCounter := &invocationCounter{counts: make(map[int]int)}
	rt, err := core.NewRuntime(topo, buildConformance(seed, n, tokens, hops, rtCounter))
	if err != nil {
		t.Fatal(err)
	}
	rtV, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The reduction value must agree (sum of token value decay is
	// order-independent up to float association; the walks are
	// identical, so the per-element sums are identical too).
	sv, rv := simV.(float64), rtV.(float64)
	if diff := sv - rv; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("reduction differs: sim=%v realtime=%v", sv, rv)
	}
	// Handler invocation counts per element must match exactly.
	for i := 0; i < n; i++ {
		if simCounter.counts[i] != rtCounter.counts[i] {
			t.Errorf("element %d: sim %d invocations, realtime %d",
				i, simCounter.counts[i], rtCounter.counts[i])
		}
	}
}
