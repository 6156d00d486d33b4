package taskfarm

import (
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// rootProgress runs prog in virtual time on a two-cluster machine and
// returns the run's exit value with the number of progress messages the
// root handled: every application handler the root runs, less the start
// message and, in a run that exits, the one final report per shard.
func rootProgress(t *testing.T, prog *core.Program, procs int, exits bool, shards int) (any, int) {
	t.Helper()
	topo, err := topology.TwoClusters(procs, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewWithCapacity(procs, 1<<16)
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 10_000_000, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring dropped %d events", tr.Dropped())
	}
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvBegin && ev.MsgKind == byte(core.KindApp) && ev.Arg1 == int64(ArrayMaster) {
			n++
		}
	}
	n-- // entryStart
	if exits {
		n -= shards // one entryReport per shard
	}
	return v, n
}

// TestRootCountsShardsNotTasks pins the farm's message economy: a
// run-to-completion shard folds its count-only results and reports once
// per quiet spell, so without stealing the root handles exactly one
// progress message per shard, and with stealing at most one more per
// successful steal (each acquisition can end one more quiet spell).
func TestRootCountsShardsNotTasks(t *testing.T) {
	for _, steal := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			p := &Params{
				Tasks: 600, Workers: 8, Prefetch: 2, TaskCost: time.Millisecond,
				Shards: shards, Batch: 1, Steal: steal, Seed: 4, CostSkew: 8,
			}
			prog, err := BuildProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			v, got := rootProgress(t, prog, 8, true, shards)
			res := v.(*Result)
			if res.Checksum != ExpectedChecksum(p.Tasks) {
				t.Errorf("steal=%v shards=%d: checksum %#x, want %#x", steal, shards, res.Checksum, ExpectedChecksum(p.Tasks))
			}
			if !steal && got != shards {
				t.Errorf("shards=%d: root handled %d progress messages, want exactly %d", shards, got, shards)
			}
			if steal && (got < shards || got > shards+res.Steals) {
				t.Errorf("steal shards=%d: root handled %d progress messages, want within [%d, %d] (%d steals)",
					shards, got, shards, shards+res.Steals, res.Steals)
			}
		}
	}
}

// TestServeFarmForwardsEveryBatch: results that carry per-task values
// cannot wait for a quiet spell — a gateway job is waiting on each — so
// a serve farm still sends the root one progress message per result
// batch, i.e. per grant.
func TestServeFarmForwardsEveryBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	const shards, perShard = 2, 150
	p := &Params{Serve: true, Workers: 8, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: shards, Batch: 4, Metrics: reg}
	var values int
	p.OnTaskDone = func(int64, float64) { values++ }
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	start := prog.Start
	prog.Start = func(ctx *core.Ctx) {
		start(ctx)
		for s := 0; s < shards; s++ {
			ctx.Send(core.ElemRef{Array: ArrayShard, Index: s}, entrySubmit,
				submitMsg{Ranges: []taskRange{{Lo: int64(s * perShard), N: perShard}}})
		}
	}
	_, got := rootProgress(t, prog, 8, false, shards)
	if values != shards*perShard {
		t.Errorf("OnTaskDone saw %d values, want %d", values, shards*perShard)
	}
	if grants := reg.Counter("taskfarm_grants_total").Value(); int64(got) != grants {
		t.Errorf("root handled %d progress messages for %d result batches", got, grants)
	}
}

// TestFoldingKeepsVirtualTime: the last fold reaches the root at the
// instant the last per-result message used to, so makespans and
// checksums are the values captured when every result batch was
// forwarded individually.
func TestFoldingKeepsVirtualTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        Params
		makespan time.Duration
		check    uint64
	}{
		{"single", *single(Params{Tasks: 500, Prefetch: 2, TaskCost: time.Millisecond, AssignCost: 20 * time.Microsecond}), 119806266, 0xbf93f121ae39e04e},
		{"sharded", Params{Tasks: 500, Prefetch: 2, TaskCost: time.Millisecond, Shards: 4, Batch: 4}, 79156778, 0xbf93f121ae39e04e},
		{"sharded+steal", Params{Tasks: 500, Prefetch: 2, TaskCost: time.Millisecond, Shards: 4, Batch: 4, Steal: true, Seed: 3, CostSkew: 8}, 358181831, 0xbf93f121ae39e04e},
		{"skew", Params{Tasks: 800, Prefetch: 3, TaskCost: time.Millisecond, AssignCost: 50 * time.Microsecond, Shards: 2, Batch: 1, Steal: true, Seed: 9, CostSkew: 4}, 281770344, 0x9c1ac42d491f332c},
	} {
		res := runFarm(t, &tc.p, 8, 4*time.Millisecond)
		if res.Makespan != tc.makespan || res.Checksum != tc.check {
			t.Errorf("%s: makespan %d checksum %#x, want %d and %#x", tc.name, res.Makespan, res.Checksum, tc.makespan, tc.check)
		}
	}
}
