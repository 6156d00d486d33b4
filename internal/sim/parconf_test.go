package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gridmdo/internal/balance"
	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/stencil"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// The parallel engine's contract is bit-identical replay: same exit
// checksums, same virtual times, same statistics, same traces as the
// sequential engine, for any worker count. These tests sweep three
// topology-generator seeds × {stencil, taskfarm, leanmd} × several
// engine arms (worker counts, PUP-packed cold state), all with tracing
// enabled, and are run under -race by the sim-scale-smoke CI job.

// confApp builds a fresh program for one run and extracts the app
// checksum bits from the exit value.
type confApp struct {
	name  string
	build func(t *testing.T, numPE int) *core.Program
	sum   func(v any) uint64
}

func farmApp(name string, shards, batch int) confApp {
	return confApp{
		name: name,
		build: func(t *testing.T, numPE int) *core.Program {
			p := &taskfarm.Params{
				Tasks: 160, Prefetch: 2, TaskCost: 200 * time.Microsecond,
				TaskBytes: 256, AssignCost: 5 * time.Microsecond,
				Shards: shards, Batch: batch, Steal: true, Seed: 11,
				CostSkew: 3,
			}
			prog, err := taskfarm.BuildProgramFor(p, numPE)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		},
		sum: func(v any) uint64 { return v.(*taskfarm.Result).Checksum },
	}
}

func confApps() []confApp {
	return []confApp{
		{
			name: "stencil",
			build: func(t *testing.T, _ int) *core.Program {
				p := &stencil.Params{Width: 32, Height: 32, VX: 4, VY: 4, Steps: 5, Warmup: 1}
				prog, err := stencil.BuildProgram(p)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			},
			sum: func(v any) uint64 { return math.Float64bits(v.(*stencil.Result).Checksum) },
		},
		farmApp("taskfarm", 2, 2),
		farmApp("taskfarm-1shard", 1, 1), // the single master
		{
			name: "leanmd",
			build: func(t *testing.T, _ int) *core.Program {
				p := leanmd.DefaultParams()
				p.NX, p.NY, p.NZ = 2, 2, 2
				p.AtomsPerCell = 4
				p.Steps, p.Warmup = 4, 1
				p.Model = leanmd.DefaultModel()
				prog, _, err := leanmd.BuildProgram(p)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			},
			sum: func(v any) uint64 { return math.Float64bits(v.(*leanmd.Result).EFinal) },
		},
	}
}

// Four generator seeds: a plain two-cluster pair, a heterogeneous
// latency mesh, a hierarchical-WAN layout with slow clusters, and a mesh
// of four-PE clusters, so shards hold several PEs and windows span the
// millisecond WAN rather than the intra-cluster hop.
var confSpecs = []string{
	"2x4;wan=2ms",
	"4x2;wan=1ms;mesh=rand:5:500us:3ms",
	"2x3@0.5,2x1;wan=4ms;site=2:10ms",
	"4x4;wan=1ms;mesh=rand:9:500us:3ms",
}

type confRun struct {
	sum    uint64
	vt     time.Duration
	stats  Stats
	events []trace.Event
}

func runConf(t *testing.T, spec string, app confApp, workers int) confRun {
	t.Helper()
	s, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog := app.build(t, topo.NumPE())
	opts := Options{Trace: trace.New(topo.NumPE()), MaxEvents: 50_000_000}
	var e *Engine
	if workers == 0 {
		e, err = New(topo, prog, opts)
	} else {
		e, err = NewParallel(topo, prog, opts, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	v, vt, err := e.Run()
	if err != nil {
		t.Fatalf("%s on %q (workers=%d): %v", app.name, spec, workers, err)
	}
	return confRun{sum: app.sum(v), vt: vt, stats: e.Stats(), events: opts.Trace.Events()}
}

func compareConf(t *testing.T, label string, ref, got confRun) {
	t.Helper()
	if got.sum != ref.sum {
		t.Errorf("%s: checksum bits %#x, want %#x", label, got.sum, ref.sum)
	}
	if got.vt != ref.vt {
		t.Errorf("%s: virtual time %v, want %v", label, got.vt, ref.vt)
	}
	if got.stats.Events != ref.stats.Events || got.stats.Messages != ref.stats.Messages || got.stats.Frames != ref.stats.Frames {
		t.Errorf("%s: counters (events=%d msgs=%d frames=%d), want (%d %d %d)",
			label, got.stats.Events, got.stats.Messages, got.stats.Frames,
			ref.stats.Events, ref.stats.Messages, ref.stats.Frames)
	}
	if !reflect.DeepEqual(got.stats.PEBusy, ref.stats.PEBusy) {
		t.Errorf("%s: per-PE busy times differ", label)
	}
	if !reflect.DeepEqual(got.stats.Processed, ref.stats.Processed) {
		t.Errorf("%s: per-PE processed counts differ", label)
	}
	if !reflect.DeepEqual(got.events, ref.events) {
		n := len(got.events)
		if len(ref.events) < n {
			n = len(ref.events)
		}
		for i := 0; i < n; i++ {
			if got.events[i] != ref.events[i] {
				t.Errorf("%s: trace diverges at event %d: got %+v, want %+v", label, i, got.events[i], ref.events[i])
				return
			}
		}
		t.Errorf("%s: trace length %d, want %d", label, len(got.events), len(ref.events))
	}
}

// TestParallelConformance: every app × topology seed × worker count
// replays the sequential run bit-for-bit, traces included.
func TestParallelConformance(t *testing.T) {
	for _, app := range confApps() {
		for _, spec := range confSpecs {
			ref := runConf(t, spec, app, 0)
			for _, workers := range []int{1, 2, 4} {
				got := runConf(t, spec, app, workers)
				compareConf(t, app.name+"/"+spec+"/par"+string(rune('0'+workers)), ref, got)
			}
		}
	}
}

// TestParallelConformanceLB: AtSync load balancing — stats collection,
// eviction, migration, resume — replays identically in parallel.
func TestParallelConformanceLB(t *testing.T) {
	app := confApp{
		name: "stencil-lb",
		build: func(t *testing.T, _ int) *core.Program {
			p := &stencil.Params{
				Width: 32, Height: 32, VX: 4, VY: 4, Steps: 6, Warmup: 1,
				LB: balance.Greedy{}, LBAtStep: 3,
			}
			prog, err := stencil.BuildProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		},
		sum: func(v any) uint64 { return math.Float64bits(v.(*stencil.Result).Checksum) },
	}
	for _, spec := range confSpecs {
		ref := runConf(t, spec, app, 0)
		for _, workers := range []int{1, 4} {
			got := runConf(t, spec, app, workers)
			compareConf(t, "stencil-lb/"+spec, ref, got)
		}
	}
}

// TestParallelRejectsZeroLookahead: a topology with a zero-delay
// cross-PE link cannot bound windows; construction must fail loudly.
func TestParallelRejectsZeroLookahead(t *testing.T) {
	topo := cleanTopo(t, 4, 0)
	prog := pingPongProgram(t)
	if _, err := NewParallel(topo, prog, Options{}, 2); err == nil {
		t.Fatal("NewParallel accepted a zero-lookahead topology")
	}
	if _, err := New(topo, prog, Options{}); err != nil {
		t.Fatalf("sequential engine must still accept it: %v", err)
	}
}

// pingPongProgram is a minimal two-element program used by constructor
// tests; it exits after one round trip.
func pingPongProgram(t *testing.T) *core.Program {
	t.Helper()
	a := core.ElemRef{Array: 0, Index: 0}
	b := core.ElemRef{Array: 0, Index: 1}
	return &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, entry core.EntryID, data any) {
					if ctx.Elem() == b {
						ctx.Send(a, 0, nil)
					} else if data != nil {
						ctx.ExitWith("done")
					}
				})
			},
			Map: func(i, numPE int) int { return i % numPE },
		}},
		Start: func(ctx *core.Ctx) { ctx.Send(b, 0, "go") },
	}
}

// TestParallelNaturalQuiescence: a program that never exits drains to
// quiescence at the same virtual time in both engines.
func TestParallelNaturalQuiescence(t *testing.T) {
	build := func() *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 8,
				New: func(i int) core.Chare {
					hops := 0
					return funcChare(func(ctx *core.Ctx, entry core.EntryID, data any) {
						ctx.Charge(50 * time.Microsecond)
						hops++
						if hops < 4 {
							ctx.Send(core.ElemRef{Array: 0, Index: (ctx.Elem().Index + 3) % 8}, 0, hops)
						}
					})
				},
				Map: func(i, numPE int) int { return i % numPE },
			}},
			Start: func(ctx *core.Ctx) {
				for i := 0; i < 8; i++ {
					ctx.Send(core.ElemRef{Array: 0, Index: i}, 0, nil)
				}
			},
		}
	}
	spec, err := topology.ParseSpec("2x4;wan=3ms")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (time.Duration, Stats) {
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var e *Engine
		if workers == 0 {
			e, err = New(topo, build(), Options{})
		} else {
			e, err = NewParallel(topo, build(), Options{}, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		v, vt, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			t.Fatalf("unexpected exit value %v", v)
		}
		return vt, e.Stats()
	}
	refVT, refStats := run(0)
	for _, w := range []int{1, 3} {
		vt, stats := run(w)
		if vt != refVT {
			t.Errorf("workers=%d: quiescence at %v, want %v", w, vt, refVT)
		}
		if stats.Events != refStats.Events {
			t.Errorf("workers=%d: %d events, want %d", w, stats.Events, refStats.Events)
		}
	}
}
