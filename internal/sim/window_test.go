package sim

import (
	"fmt"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// seqParRun runs one program on the sequential engine and on the parallel
// engine (workers > 0), traced, returning what compareConf checks plus the
// run's error text.
func seqParRun(t *testing.T, topo *topology.Topology, prog *core.Program, opts Options, workers int) (confRun, string, *Engine) {
	t.Helper()
	opts.Trace = trace.New(topo.NumPE())
	var e *Engine
	var err error
	if workers == 0 {
		e, err = New(topo, prog, opts)
	} else {
		e, err = NewParallel(topo, prog, opts, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	v, vt, err := e.Run()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	r := confRun{vt: vt, stats: e.Stats(), events: opts.Trace.Events()}
	if v != nil {
		r.sum = uint64(v.(int))
	}
	return r, msg, e
}

// tokenWave is the sim_wave benchmark's program: tokens hop stride-1
// round a chare array spread over every PE, charging hopCost per hop,
// then report to a root on PE 0 that exits with their sum.
func tokenWave(numPE, charesPerPE, tokensPerPE, hops int, hopCost time.Duration) *core.Program {
	type token struct {
		hops int
		val  uint64
	}
	chares, tokens := charesPerPE*numPE, tokensPerPE*numPE
	root := core.ElemRef{Array: 1, Index: 0}
	return &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: 0, N: chares,
				New: func(i int) core.Chare {
					return funcChare(func(ctx *core.Ctx, _ core.EntryID, data any) {
						tok := data.(token)
						tok.val = tok.val*31 + uint64(i)
						ctx.Charge(hopCost)
						if tok.hops == 0 {
							ctx.Send(root, 0, tok.val)
							return
						}
						tok.hops--
						ctx.Send(core.ElemRef{Array: 0, Index: (i + 1) % chares}, 0, tok)
					})
				},
				Map: func(i, pes int) int { return i % pes },
			},
			{
				ID: 1, N: 1,
				New: func(int) core.Chare {
					var sum uint64
					count := 0
					return funcChare(func(ctx *core.Ctx, _ core.EntryID, data any) {
						sum += data.(uint64)
						if count++; count == tokens {
							ctx.ExitWith(int(sum >> 1))
						}
					})
				},
				Map: func(int, int) int { return 0 },
			},
		},
		Start: func(ctx *core.Ctx) {
			for t := 0; t < tokens; t++ {
				ctx.Send(core.ElemRef{Array: 0, Index: t}, 0, token{hops: hops, val: uint64(t)})
			}
		},
	}
}

// TestParallelWindowsFollowClusters pins the sim_wave machine: its 16
// shards are its 16 clusters, so the window is the 2–10 ms mesh, not the
// 10 µs intra link, and the run needs a few dozen barriers instead of
// thousands — with the result identical to the sequential engine's.
func TestParallelWindowsFollowClusters(t *testing.T) {
	spec, err := topology.ParseSpec("16x64;wan=5ms;mesh=rand:1:2ms:10ms")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (any, time.Duration, Stats) {
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		prog := tokenWave(topo.NumPE(), 4, 2, 100, 10*time.Microsecond)
		var e *Engine
		if workers == 0 {
			e, err = New(topo, prog, Options{})
		} else {
			e, err = NewParallel(topo, prog, Options{}, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		v, vt, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v, vt, e.Stats()
	}
	v, vt, seq := run(0)
	pv, pvt, par := run(2)
	if pv != v || pvt != vt || par.Events != seq.Events || par.Messages != seq.Messages {
		t.Errorf("parallel (%v, %v, %d events, %d msgs) != sequential (%v, %v, %d, %d)",
			pv, pvt, par.Events, par.Messages, v, vt, seq.Events, seq.Messages)
	}
	// Every count the run produces is pinned for both engines, so an event
	// queue that reorders events fails here rather than only moving a
	// benchmark number.
	for _, r := range []struct {
		name string
		v    any
		vt   time.Duration
		st   Stats
	}{{"sequential", v, vt, seq}, {"parallel", pv, pvt, par}} {
		if r.v != 3312634027704125440 || r.vt != 34525083*time.Nanosecond {
			t.Errorf("%s: exit %v at %v, want 3312634027704125440 at 34.525083ms", r.name, r.v, r.vt)
		}
		if r.st.Events != 417_794 || r.st.Messages != 208_896 || r.st.Frames != 208_897 {
			t.Errorf("%s: %d events, %d messages, %d frames, want 417794, 208896, 208897",
				r.name, r.st.Events, r.st.Messages, r.st.Frames)
		}
	}
	if par.Shards != 16 {
		t.Errorf("%d shards, want one per cluster (16)", par.Shards)
	}
	if par.Lookahead < 2*time.Millisecond {
		t.Errorf("lookahead %v, want the ≥ 2ms mesh", par.Lookahead)
	}
	if par.Windows > 64 || par.Windows == 0 {
		t.Errorf("%d windows, want 1..64", par.Windows)
	}
	if seq.Windows != 0 || seq.Lookahead != 0 {
		t.Errorf("sequential engine reports %d windows, lookahead %v", seq.Windows, seq.Lookahead)
	}
}

// TestShardBounds: a multi-cluster machine is cut only at cluster
// boundaries into runs balanced by PE count; one cluster splits evenly.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct {
		sizes   []int
		workers int
		want    []int
	}{
		{[]int{64, 64, 64, 64}, 2, []int{0, 64, 128, 192, 256}},
		{[]int{1, 1, 6, 1, 1}, 1, []int{0, 1, 2, 8, 9, 10}},
		{[]int{1, 1, 6, 1, 1, 1, 1}, 1, []int{0, 1, 2, 8, 9, 10, 11, 12}},
		{[]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, 2, []int{0, 4, 8, 12, 20, 24, 28, 32, 36, 40, 44, 48, 56, 60, 64, 68, 72}},
		{[]int{10}, 1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{[]int{20}, 1, []int{0, 2, 4, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}},
	} {
		topo, err := topology.New(tc.sizes)
		if err != nil {
			t.Fatal(err)
		}
		if got := shardBounds(topo, tc.workers); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%v, %d workers: bounds %v, want %v", tc.sizes, tc.workers, got, tc.want)
		}
	}
}

// TestParallelZeroDelayIntraLinks: zero-delay links inside a cluster no
// longer bar the parallel engine, since shards never split a cluster —
// only the 2ms WAN crosses shards. Handlers send both before and after
// charging, so zero-delay deliveries land at the very instant of the
// handler that sent them.
func TestParallelZeroDelayIntraLinks(t *testing.T) {
	build := func() *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 8,
				New: func(i int) core.Chare {
					return funcChare(func(ctx *core.Ctx, _ core.EntryID, data any) {
						n := data.(int)
						if n == 0 {
							ctx.ExitWith(ctx.Elem().Index)
							return
						}
						ctx.Send(core.ElemRef{Array: 0, Index: (i + 1) % 8}, 0, n-1)
						ctx.Charge(time.Duration(1+i%3) * 100 * time.Microsecond)
						if n%5 == 0 {
							ctx.Send(core.ElemRef{Array: 0, Index: (i + 4) % 8}, 0, n-1)
						}
					})
				},
				Map: func(i, pes int) int { return i % pes },
			}},
			Start: func(ctx *core.Ctx) {
				for i := 0; i < 8; i++ {
					ctx.Send(core.ElemRef{Array: 0, Index: i}, 0, 60)
				}
			},
		}
	}
	ref, refErr, _ := seqParRun(t, cleanTopo(t, 4, 2*time.Millisecond), build(), Options{}, 0)
	for _, workers := range []int{1, 2} {
		got, gotErr, e := seqParRun(t, cleanTopo(t, 4, 2*time.Millisecond), build(), Options{}, workers)
		if gotErr != refErr {
			t.Errorf("workers=%d: error %q, want %q", workers, gotErr, refErr)
		}
		compareConf(t, fmt.Sprintf("zero-intra/par%d", workers), ref, got)
		if s := e.Stats(); s.Shards != 2 || s.Lookahead != 2*time.Millisecond {
			t.Errorf("workers=%d: %d shards, lookahead %v; want 2 shards, 2ms", workers, s.Shards, s.Lookahead)
		}
	}
}

// cutProgram drives the rewind log's bound on a three-cluster machine
// with zero-delay intra links and a 2ms WAN. From 2ms on, shards 0 and 1
// each run four ping-pong chains of sub-microsecond hops — far more than
// rewindCap events per window, so both are cut short every window, shard
// 0 (150ns hops) falling behind shard 1 (400ns) — while shard 2 runs one
// slow chain that reaches each window's end, 2ms ahead of shard 0. A
// shard 1 handler calls ExitWith at exitAt (never, when 0): shard 0 has
// not got there yet, and shard 2 passed it several windows before.
func cutProgram(exitAt time.Duration) *core.Program {
	const chains, hops = 4, 40000
	const start = 2 * time.Millisecond
	chain := func(i int) core.ElemRef { return core.ElemRef{Array: 0, Index: i} }
	clusterOf := func(i int) int { return i / (2 * chains) }
	cost := [3]time.Duration{150 * time.Nanosecond, 400 * time.Nanosecond, 150 * time.Microsecond}
	return &core.Program{
		Arrays: []core.ArraySpec{{
			// Chain elements 2k and 2k+1 ping-pong between the two PEs
			// of cluster clusterOf(2k); cluster 2 gets one slow chain.
			ID: 0, N: 4*chains + 2,
			New: func(i int) core.Chare {
				c := clusterOf(i)
				return funcChare(func(ctx *core.Ctx, _ core.EntryID, data any) {
					n := data.(int)
					if exitAt > 0 && c == 1 && ctx.Time() >= exitAt {
						ctx.ExitWith(int(ctx.Time()))
						return
					}
					if n == 0 {
						return
					}
					if now := ctx.Time(); now < start {
						ctx.Charge(start - now) // shard 0 waits for the others
					}
					if n%2 == 0 {
						ctx.Send(chain(i^1), 0, n-1) // lands this very instant
						ctx.Charge(cost[c])
					} else {
						ctx.Charge(cost[c])
						ctx.Send(chain(i^1), 0, n-1)
					}
				})
			},
			Map: func(i, _ int) int { return 2*clusterOf(i) + i%2 },
		}},
		Start: func(ctx *core.Ctx) {
			for i := 0; i < 4*chains+2; i += 2 {
				ctx.Send(chain(i), 0, hops)
			}
		},
	}
}

// TestParallelStopUnderCut: exits and event budgets that land while
// sibling shards are cut short by the rewind log's bound — some behind
// the stop, which must keep running up to it, and one ahead
// of it by several windows, which must rewind across them — reproduce the
// sequential run bit for bit: exit value, error, virtual time, Stats and
// trace. Each case fails if the engine settles a stop at the barrier that
// first sees it (the lagging shard's events before it never run), drops
// rewind records at every barrier (the leading shard cannot undo its
// events past the stop), or counts the budget over records that are not
// yet final.
func TestParallelStopUnderCut(t *testing.T) {
	topo := func() *topology.Topology {
		topo, err := topology.New([]int{2, 2, 2}, topology.WithIntraLink(topology.Link{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][2]topology.ClusterID{{0, 1}, {0, 2}, {1, 2}} {
			if err := topo.SetClusterPairLink(p[0], p[1], topology.Link{Latency: 2 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		return topo
	}
	for _, tc := range []struct {
		name   string
		exitAt time.Duration
		opts   Options
	}{
		{"exit", 3 * time.Millisecond, Options{}},
		{"max-events", 0, Options{MaxEvents: 24_000}},
	} {
		ref, refErr, _ := seqParRun(t, topo(), cutProgram(tc.exitAt), tc.opts, 0)
		if refErr == "" && ref.sum == 0 {
			t.Fatalf("%s: sequential run neither exited nor stopped", tc.name)
		}
		for _, workers := range []int{1, 3} {
			got, gotErr, e := seqParRun(t, topo(), cutProgram(tc.exitAt), tc.opts, workers)
			label := fmt.Sprintf("%s/par%d", tc.name, workers)
			if got.sum != ref.sum || gotErr != refErr {
				t.Errorf("%s: exit %d, error %q; want %d, %q", label, got.sum, gotErr, ref.sum, refErr)
			}
			compareConf(t, label, ref, got)
			if s := e.Stats(); s.Windows < 3 {
				t.Errorf("%s: %d windows; the log bound should have cut the run into more", label, s.Windows)
			}
		}
	}
}
