package taskfarm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
)

// TestShardedChecksumMatchesSingleMaster is the acceptance bit-identity
// check: every shard count and batch size — the single dispatcher
// (Shards 1, Batch 1) included, with stealing and skew scrambling
// completion order wherever there is someone to steal from — must produce
// the exact checksum of the task set.
func TestShardedChecksumMatchesSingleMaster(t *testing.T) {
	want := ExpectedChecksum(500)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 8} {
			p := &Params{
				Tasks: 500, Prefetch: 2, TaskCost: time.Millisecond,
				Shards: shards, Batch: batch, Steal: true, Seed: 42, CostSkew: 8,
			}
			res := runFarm(t, p, 8, 2*time.Millisecond)
			if res.Checksum != want {
				t.Errorf("shards=%d batch=%d: checksum %#x, want %#x", shards, batch, res.Checksum, want)
			}
			if math.Abs(res.Sum-expectedSum(500)) > 1e-9 {
				t.Errorf("shards=%d batch=%d: sum = %v, want %v", shards, batch, res.Sum, expectedSum(500))
			}
		}
	}
}

// TestOneShardIsOneDispatcher pins the message economy that makes the
// one-shard, one-task-per-grant farm the single master: one grant per
// task, nobody to steal from, one shard's worth of accounting, and past
// the JT/AT knee a makespan bound by assignment (Tasks x AssignCost).
func TestOneShardIsOneDispatcher(t *testing.T) {
	const tasks, workers = 2048, 32
	for _, shards := range []int{0, 1} { // 0 means 1
		reg := metrics.NewRegistry()
		p := &Params{
			Tasks: tasks, Prefetch: 2, Workers: workers,
			TaskCost: 8 * time.Millisecond, AssignCost: time.Millisecond, // knee at 8 workers
			Shards: shards, Batch: 1, Steal: true, Metrics: reg,
		}
		res := runFarm(t, p, workers, 0)
		if got := reg.Counter("taskfarm_grants_total").Value(); got != tasks {
			t.Errorf("Shards=%d: %d grant messages, want one per task (%d)", shards, got, tasks)
		}
		if got := reg.Counter("taskfarm_steals_total").Value() + reg.Counter("taskfarm_steal_fails_total").Value(); got != 0 {
			t.Errorf("Shards=%d: %d steal attempts in a one-shard farm", shards, got)
		}
		if got := reg.Counter("taskfarm_shard_tasks_total", metrics.L("shard", "0")).Value(); got != tasks {
			t.Errorf("Shards=%d: shard 0 series counts %d tasks, want %d", shards, got, tasks)
		}
		if res.Shards != 1 || len(res.PerShard) != 1 || res.PerShard[0] != tasks {
			t.Errorf("Shards=%d: Result.Shards=%d PerShard=%v, want 1 and [%d]", shards, res.Shards, res.PerShard, tasks)
		}
		if res.Checksum != ExpectedChecksum(tasks) {
			t.Errorf("Shards=%d: checksum %#x, want %#x", shards, res.Checksum, ExpectedChecksum(tasks))
		}
		if bound := tasks * p.AssignCost; res.Makespan < bound {
			t.Errorf("Shards=%d: makespan %v below the assignment bound %v", shards, res.Makespan, bound)
		}
	}
}

// TestShardedAllTasksExactlyOnce: per-worker and per-shard tallies must
// both account for every task exactly once, even when stealing moves
// ownership around.
func TestShardedAllTasksExactlyOnce(t *testing.T) {
	p := &Params{
		Tasks: 777, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 3, Batch: 4, Steal: true, Seed: 7, CostSkew: 4,
	}
	res := runFarm(t, p, 8, 2*time.Millisecond)
	totW, totS := 0, 0
	for _, n := range res.PerWorker {
		totW += n
	}
	for _, n := range res.PerShard {
		totS += n
	}
	if totW != 777 || totS != 777 {
		t.Errorf("per-worker sums to %d, per-shard to %d, want 777", totW, totS)
	}
	if res.Shards != 3 || len(res.PerShard) != 3 {
		t.Errorf("shard accounting: Shards=%d PerShard=%v", res.Shards, res.PerShard)
	}
}

// TestStealingUnderSkew: a linear cost ramp drains the cheap low-index
// shards early; with stealing on they must acquire work from the
// expensive end, and the acquired tasks must show up in the counters.
func TestStealingUnderSkew(t *testing.T) {
	p := &Params{
		Tasks: 600, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 4, Batch: 4, Steal: true, Seed: 1, CostSkew: 16,
	}
	res := runFarm(t, p, 8, time.Millisecond)
	if res.Steals == 0 {
		t.Fatal("no steals despite a 16x cost skew")
	}
	if res.StolenTask == 0 {
		t.Error("steals recorded but no tasks moved")
	}
	// Stealing must actually help: the same skewed farm without stealing
	// is bounded by the static owner of the expensive tail.
	q := *p
	q.Steal = false
	noSteal := runFarm(t, &q, 8, time.Millisecond)
	if res.Checksum != noSteal.Checksum {
		t.Errorf("stealing changed the checksum: %#x vs %#x", res.Checksum, noSteal.Checksum)
	}
	if float64(res.Makespan) > 0.95*float64(noSteal.Makespan) {
		t.Errorf("stealing did not help under skew: %v with vs %v without", res.Makespan, noSteal.Makespan)
	}
}

// TestShardingBeatsSingleMasterPastKnee reproduces the WRONJ knee in
// virtual time: with AT = 1ms and JT = 8ms a single dispatcher saturates
// at JT/AT = 8 workers. At 32 workers on 32 PEs the single master is
// assignment-bound (Tasks x AT); eight shards put each dispatcher well
// under its own knee (4 workers each), so the farm returns to being
// compute-bound. Far past the knee (128 workers, 16x) the single master
// plateaus at its dispatch rate: throughput within 10 % of 1/AT.
func TestShardingBeatsSingleMasterPastKnee(t *testing.T) {
	const workers, tasks = 32, 2048
	const at = time.Millisecond
	base := Params{
		Tasks: tasks, Prefetch: 2, Workers: workers,
		TaskCost: 8 * time.Millisecond, AssignCost: at,
	}
	single := base
	single.Shards, single.Batch = 1, 1
	sharded := base
	sharded.Shards, sharded.Batch = 8, 1
	ms := runFarm(t, &single, workers, 0).Makespan
	mh := runFarm(t, &sharded, workers, 0).Makespan
	// Single master is assignment-bound: >= Tasks * AssignCost.
	if ms < tasks*at {
		t.Errorf("single-master makespan %v below the assignment bound", ms)
	}
	if float64(mh) > 0.4*float64(ms) {
		t.Errorf("8 shards gave %v vs single %v; want well under 0.4x past the knee", mh, ms)
	}

	plateau := single
	plateau.Workers = 128
	m := runFarm(t, &plateau, plateau.Workers, 0).Makespan
	frac := tasks * at.Seconds() / m.Seconds()
	if frac < 0.9 {
		t.Errorf("single master at W=128 reached %.3f of 1/AT, want >= 0.9", frac)
	}
	t.Logf("single master at W=128: %.3f of 1/AT", frac)
}

// TestBatchingAmortizesGrants: with Batch=16 the grant-message count must
// drop close to 16x (the guided taper grants the tail in slivers, so the
// ratio lands a little under the full factor), and the farm still
// completes every task.
func TestBatchingAmortizesGrants(t *testing.T) {
	run := func(batch int) (grants, granted int64, res *Result) {
		reg := metrics.NewRegistry()
		p := &Params{
			Tasks: 960, Prefetch: 2, TaskCost: time.Millisecond,
			Shards: 2, Batch: batch, Metrics: reg,
		}
		res = runFarm(t, p, 4, time.Millisecond)
		return reg.Counter("taskfarm_grants_total").Value(),
			reg.Counter("taskfarm_tasks_granted_total").Value(), res
	}
	g1, _, r1 := run(1)
	g16, granted16, r16 := run(16)
	if r1.Checksum != r16.Checksum {
		t.Errorf("batching changed the checksum: %#x vs %#x", r1.Checksum, r16.Checksum)
	}
	if g1 != 960 {
		t.Errorf("batch=1 sent %d grants, want 960", g1)
	}
	if lo, hi := int64(960/16), int64(960/8); g16 < lo || g16 > hi {
		t.Errorf("batch=16 sent %d grants, want within [%d,%d]", g16, lo, hi)
	}
	if granted16 != 960 {
		t.Errorf("batch=16 granted %d tasks, want 960", granted16)
	}
}

// TestShardedRealtime runs the sharded farm on the wall-clock runtime:
// same checksum, real spin work, steals possible.
func TestShardedRealtime(t *testing.T) {
	prog, err := BuildProgram(&Params{
		Tasks: 120, Prefetch: 2, Workers: 4, Spin: 5_000,
		Shards: 2, Batch: 4, Steal: true, Seed: 3, CostSkew: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := v.(*Result)
	if res.Checksum != ExpectedChecksum(120) {
		t.Errorf("realtime sharded checksum %#x, want %#x", res.Checksum, ExpectedChecksum(120))
	}
	if res.Makespan <= 0 {
		t.Error("no makespan measured")
	}
}

// TestShardedMetrics: the published series must agree with the Result's
// own accounting.
func TestShardedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &Params{
		Tasks: 400, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 4, Batch: 4, Steal: true, Seed: 9, CostSkew: 8,
		Metrics: reg,
	}
	res := runFarm(t, p, 8, time.Millisecond)
	if got := reg.Counter("taskfarm_tasks_granted_total").Value(); got != 400 {
		t.Errorf("granted counter %d, want 400", got)
	}
	if got := reg.Counter("taskfarm_steals_total").Value(); got != int64(res.Steals) {
		t.Errorf("steals counter %d, Result says %d", got, res.Steals)
	}
	if got := reg.Counter("taskfarm_stolen_tasks_total").Value(); got != int64(res.StolenTask) {
		t.Errorf("stolen counter %d, Result says %d", got, res.StolenTask)
	}
	var perShard int64
	for i := 0; i < p.Shards; i++ {
		perShard += reg.Counter("taskfarm_shard_tasks_total", metrics.L("shard", string(rune('0'+i)))).Value()
	}
	if perShard != 400 {
		t.Errorf("per-shard counters sum to %d, want 400", perShard)
	}
	if reg.Histogram("taskfarm_assign_wait_ns", metrics.DurationBuckets).Count() == 0 {
		t.Error("no assignment waits observed")
	}
}

// TestShardedValidation covers the dispatcher-specific error paths.
func TestShardedValidation(t *testing.T) {
	bad := []*Params{
		{Tasks: 1, Prefetch: 1, Batch: 1, Shards: -1},
		{Tasks: 1, Prefetch: 1, Batch: -2},
		{Tasks: 1, Prefetch: 1, Batch: 1, AssignCost: -time.Second},
		{Tasks: 1, Prefetch: 1, Batch: 1, CostSkew: 0.5},
		// Batch 0 is rejected whatever the farm's shape.
		{Tasks: 1, Prefetch: 1},
		{Tasks: 1, Prefetch: 1, Shards: 1},
		{Tasks: 1, Prefetch: 1, Shards: 4},
		{Serve: true, Prefetch: 1, Shards: 2},
		{Tasks: 1, Prefetch: 1, Elastic: &ElasticConfig{NodeOf: func(int) int { return 0 }, ActiveNode: func(int) bool { return true }}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	// More shards than workers cannot grant everywhere; must be rejected.
	if _, err := BuildProgram(&Params{Tasks: 10, Prefetch: 1, Workers: 2, Shards: 4, Batch: 1}); err == nil {
		t.Error("4 shards over 2 workers accepted")
	}
	// Shards 0 means 1: the same program, not a different one.
	for _, shards := range []int{0, 1} {
		prog, err := BuildProgram(&Params{Tasks: 10, Prefetch: 1, Workers: 2, Shards: shards, Batch: 1})
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if n := prog.Arrays[ArrayShard].N; n != 1 {
			t.Errorf("Shards=%d builds %d dispatcher shards, want 1", shards, n)
		}
	}
}

// TestBatchCodecRoundTrip pins every farm-protocol payload through the
// full wire codec with concrete-type equality, like
// TestWireCodecPayloadKinds does for the built-ins.
func TestBatchCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"task-batch", taskBatchMsg{Shard: 3, Ranges: []taskRange{{Lo: 100, N: 16}, {Lo: 900, N: 4}}, bytes: 640}},
		{"task-batch-empty", taskBatchMsg{Shard: 0}},
		{"result-batch", resultBatchMsg{Worker: 7, Done: 16, Sum: 17.25, Check: 0xDEADBEEF, bytes: 640}},
		{"result-batch-serve", resultBatchMsg{Worker: 7, Done: 3, Sum: 3.5, Check: 99,
			Ranges: []taskRange{{Lo: 40, N: 2}, {Lo: 99, N: 1}}, Values: []float64{1.5, 1.25, 0.75}, bytes: 192}},
		{"steal-req", stealReqMsg{Thief: 2}},
		{"steal-rsp", stealRspMsg{Victim: 1, Ranges: []taskRange{{Lo: 5000, N: 123}}}},
		{"steal-rsp-empty", stealRspMsg{Victim: 1}},
		{"progress", progressMsg{Shard: 2, Done: 8, Sum: -3.5, Check: 42}},
		{"progress-serve", progressMsg{Shard: 2, Done: 2, Sum: 2.5, Check: 7,
			Ranges: []taskRange{{Lo: 10, N: 2}}, Values: []float64{1.0, 1.5}}},
		{"submit", submitMsg{Ranges: []taskRange{{Lo: 0, N: 64}}}},
		{"submit-empty", submitMsg{}},
		{"report", shardReportMsg{Shard: 1, PerW: []int32{10, 0, 32}, Granted: 42, Steals: 2, StealFails: 1, Stolen: 20, Victimized: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: ArrayShard, Index: 1}, Data: tc.data}
			b, err := core.EncodeMessage(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := core.DecodeMessage(b)
			if err != nil {
				t.Fatal(err)
			}
			if !equalPayload(out.Data, tc.data) {
				t.Errorf("payload: got %#v, want %#v", out.Data, tc.data)
			}
		})
	}
}

// equalPayload compares protocol payloads treating nil and empty range
// slices as equal (the codec does not distinguish them).
func equalPayload(a, b any) bool {
	switch x := a.(type) {
	case taskBatchMsg:
		y, ok := b.(taskBatchMsg)
		return ok && x.Shard == y.Shard && x.bytes == y.bytes && equalRanges(x.Ranges, y.Ranges)
	case stealRspMsg:
		y, ok := b.(stealRspMsg)
		return ok && x.Victim == y.Victim && equalRanges(x.Ranges, y.Ranges)
	case resultBatchMsg:
		y, ok := b.(resultBatchMsg)
		return ok && x.Worker == y.Worker && x.Done == y.Done && x.Sum == y.Sum &&
			x.Check == y.Check && x.bytes == y.bytes &&
			equalRanges(x.Ranges, y.Ranges) && equalValues(x.Values, y.Values)
	case progressMsg:
		y, ok := b.(progressMsg)
		return ok && x.Shard == y.Shard && x.Done == y.Done && x.Sum == y.Sum &&
			x.Check == y.Check && equalRanges(x.Ranges, y.Ranges) && equalValues(x.Values, y.Values)
	case submitMsg:
		y, ok := b.(submitMsg)
		return ok && equalRanges(x.Ranges, y.Ranges)
	case shardReportMsg:
		y, ok := b.(shardReportMsg)
		if !ok || x.Shard != y.Shard || x.Granted != y.Granted || x.Steals != y.Steals ||
			x.StealFails != y.StealFails || x.Stolen != y.Stolen || x.Victimized != y.Victimized ||
			len(x.PerW) != len(y.PerW) {
			return false
		}
		for i := range x.PerW {
			if x.PerW[i] != y.PerW[i] {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRanges(a, b []taskRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchCodecHugeCountRejected: a value, range or per-worker count no
// input could hold — 2^61 eight-byte values is where a multiplying bounds
// check wraps to zero — is a malformed frame, not an allocation.
func TestBatchCodecHugeCountRejected(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<61)
	for _, tc := range []struct {
		name string
		data any
		cut  int // trailing bytes of the valid encoding to replace with the huge count
	}{
		{"result-batch-values", resultBatchMsg{Worker: 7, Done: 16, Sum: 1.5, Check: 9}, 1},
		{"progress-values", progressMsg{Shard: 2, Done: 8, Sum: -3.5, Check: 42}, 1},
		{"progress-ranges", progressMsg{Shard: 2, Done: 8, Sum: -3.5, Check: 42}, 2},
		{"submit-ranges", submitMsg{}, 1},
		{"report-perw", shardReportMsg{Shard: 1}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := core.EncodeMessage(&core.Message{Kind: core.KindApp, Data: tc.data})
			if err != nil {
				t.Fatal(err)
			}
			// Everything from the count on is empty lists and zero
			// counters: one zero byte each.
			for _, z := range b[len(b)-tc.cut:] {
				if z != 0 {
					t.Fatalf("encoding does not end in %d zero bytes: %x", tc.cut, b)
				}
			}
			bad := append(append(b[:len(b)-tc.cut:len(b)-tc.cut], huge...), make([]byte, 16)...)
			if _, err := core.DecodeMessage(bad); !errors.Is(err, core.ErrBadWire) {
				t.Errorf("count of 2^61: err = %v, want ErrBadWire", err)
			}
		})
	}
}

// TestBatchCodecWireSize pins the hot messages' encoded size, header
// included, at what the hand-written codecs before PUP produced.
func TestBatchCodecWireSize(t *testing.T) {
	for _, tc := range []struct {
		data any
		max  int
	}{
		{taskBatchMsg{Shard: 3, Ranges: []taskRange{{Lo: 1000, N: 64}}, bytes: 64 * 64}, 64},
		{resultBatchMsg{Worker: 7, Done: 64, Sum: 17.25, Check: 0xDEADBEEF, bytes: 64 * 64}, 80},
		{progressMsg{Shard: 3, Done: 64, Sum: 17.25, Check: 0xDEADBEEF}, 78},
	} {
		b, err := core.EncodeMessage(&core.Message{Kind: core.KindApp, Data: tc.data})
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > tc.max {
			t.Errorf("%T encodes to %d bytes, was %d", tc.data, len(b), tc.max)
		}
	}
}

// shardTestParams builds a Params good for PUP testing.
func shardTestParams() *Params {
	return &Params{Tasks: 1000, Prefetch: 2, Workers: 8, Shards: 4, Batch: 8, Steal: true, Seed: 5}
}

// TestShardPUPRoundTrip: pack a mid-run shard, restore it into a fresh
// element, and require the repack to be byte-identical.
func TestShardPUPRoundTrip(t *testing.T) {
	p := shardTestParams()
	s := newShard(p, 1, newFarmMetrics(p))
	// Mutate into a mid-run state: partial grants, a steal in flight.
	s.popFront(100)
	s.pending = append(s.pending, taskRange{Lo: 900, N: 25})
	s.avail += 25
	s.out[0], s.out[1] = 2, 1
	s.perW[0], s.perW[1] = 48, 52
	s.granted, s.grants = 103, 17
	s.steals, s.stealFails = 2, 1
	s.stolenIn, s.victimized = 25, 10
	s.fails = 1
	s.stealing = true
	s.nextRand()

	data, err := core.PUPPack(s)
	if err != nil {
		t.Fatal(err)
	}
	r := newShard(p, 1, newFarmMetrics(p))
	if err := core.PUPUnpack(r, data); err != nil {
		t.Fatal(err)
	}
	if r.avail != s.avail || !equalRanges(r.pending, s.pending) {
		t.Errorf("deque not restored: avail %d vs %d, pending %v vs %v", r.avail, s.avail, r.pending, s.pending)
	}
	if r.rng != s.rng || r.fails != s.fails || r.stealing != s.stealing {
		t.Error("steal state not restored")
	}
	data2, err := core.PUPPack(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("repack differs from original pack")
	}
}

// TestRootPUPRoundTrip: same discipline for the root collector.
func TestRootPUPRoundTrip(t *testing.T) {
	p := shardTestParams()
	r := &root{p: p, shards: 4, workers: 8,
		started: 5 * time.Millisecond, makespan: 0,
		done: 400, sum: 123.5, check: 0xABCD, reports: 0,
		perW: []int{50, 50, 50, 50, 50, 50, 50, 50}, perShard: []int{100, 100, 100, 100},
	}
	data, err := core.PUPPack(r)
	if err != nil {
		t.Fatal(err)
	}
	q := &root{p: p, shards: 4, workers: 8}
	if err := core.PUPUnpack(q, data); err != nil {
		t.Fatal(err)
	}
	if q.done != 400 || q.check != 0xABCD || len(q.perW) != 8 {
		t.Errorf("root not restored: %+v", q)
	}
	data2, err := core.PUPPack(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("repack differs from original pack")
	}
	// A checkpoint from a different shard count must be rejected.
	bad := &root{p: p, shards: 2, workers: 8}
	if err := core.PUPUnpack(bad, data); err == nil {
		t.Error("restore accepted a checkpoint with the wrong shard count")
	}
}

// FuzzShardPUP feeds arbitrary bytes to the shard restore path: it must
// error or restore, never panic, and a successful restore must repack.
func FuzzShardPUP(f *testing.F) {
	p := shardTestParams()
	if data, err := core.PUPPack(newShard(p, 0, newFarmMetrics(p))); err == nil {
		f.Add(data)
	}
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newShard(p, 0, newFarmMetrics(p))
		if err := core.PUPUnpack(s, data); err != nil {
			return
		}
		if _, err := core.PUPPack(s); err != nil {
			t.Fatalf("restored shard cannot repack: %v", err)
		}
	})
}

// TestImbalance pins the helper's edge cases.
func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Errorf("Imbalance(nil) = %v", got)
	}
	if got := Imbalance([]int{5, 0, 5}); got != 0 {
		t.Errorf("Imbalance with a zero entry = %v", got)
	}
	if got := Imbalance([]int{2, 8}); got != 4 {
		t.Errorf("Imbalance([2 8]) = %v, want 4", got)
	}
}
