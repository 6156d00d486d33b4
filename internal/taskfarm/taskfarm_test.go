package taskfarm

import (
	"math"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

// single is the single-master farm: one dispatcher shard granting one task
// per message.
func single(p Params) *Params {
	p.Shards, p.Batch = 1, 1
	return &p
}

func runFarm(t *testing.T, p *Params, procs int, lat time.Duration) *Result {
	t.Helper()
	prog, err := BuildProgramFor(p, procs)
	if err != nil {
		t.Fatal(err)
	}
	var topo *topology.Topology
	if procs == 1 {
		topo, err = topology.Single(1)
	} else {
		topo, err = topology.TwoClusters(procs, lat)
	}
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Result)
}

func expectedSum(tasks int) float64 {
	var s float64
	for i := 0; i < tasks; i++ {
		s += TaskValue(i)
	}
	return s
}

func TestAllTasksExecutedExactlyOnce(t *testing.T) {
	p := single(Params{Tasks: 137, Prefetch: 2, TaskCost: time.Millisecond})
	res := runFarm(t, p, 4, 5*time.Millisecond)
	if res.Tasks != 137 {
		t.Fatalf("tasks = %d", res.Tasks)
	}
	if math.Abs(res.Sum-expectedSum(137)) > 1e-9 {
		t.Errorf("sum = %v, want %v", res.Sum, expectedSum(137))
	}
	total := 0
	for _, n := range res.PerWorker {
		total += n
	}
	if total != 137 {
		t.Errorf("per-worker counts sum to %d", total)
	}
}

func TestSelfSchedulingBalances(t *testing.T) {
	// Homogeneous workers, task cost above the resupply round trip:
	// completion counts should be near-uniform.
	p := single(Params{Tasks: 400, Prefetch: 2, TaskCost: 10 * time.Millisecond})
	res := runFarm(t, p, 8, 4*time.Millisecond) // RTT 8ms < 10ms cost
	min, max := res.PerWorker[0], res.PerWorker[0]
	for _, n := range res.PerWorker {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		t.Error("a worker got no tasks")
	}
	if float64(max) > 1.5*float64(min) {
		t.Errorf("self-scheduling imbalance: min=%d max=%d", min, max)
	}
}

// TestSelfSchedulingAdaptsToStarvation: when tasks are far cheaper than
// the resupply round trip, self-scheduling correctly feeds the workers
// near the master more — remote workers are throughput-limited by the
// WAN, and the farm routes work around them instead of stalling.
func TestSelfSchedulingAdaptsToStarvation(t *testing.T) {
	p := single(Params{Tasks: 400, Prefetch: 2, TaskCost: time.Millisecond})
	res := runFarm(t, p, 8, 4*time.Millisecond) // RTT 8ms >> 1ms cost
	local, remote := 0, 0
	for w, n := range res.PerWorker {
		if w < 4 { // cluster 0, with the master
			local += n
		} else {
			remote += n
		}
	}
	if local <= remote {
		t.Errorf("local workers completed %d tasks vs remote %d; expected adaptive skew toward the master's cluster", local, remote)
	}
	if remote == 0 {
		t.Error("remote cluster did no work at all")
	}
}

// TestPrefetchMasksLatency is the class's latency-tolerance mechanism:
// with one task in flight a remote worker idles a full round trip between
// tasks; with two, dispatch overlaps compute.
func TestPrefetchMasksLatency(t *testing.T) {
	const cost = 20 * time.Millisecond
	const lat = 16 * time.Millisecond // RTT 32ms > cost
	base := single(Params{Tasks: 160, TaskCost: cost})

	run := func(prefetch int) time.Duration {
		p := *base
		p.Prefetch = prefetch
		return runFarm(t, &p, 8, lat).Makespan
	}
	p1 := run(1)
	p2 := run(2)
	p3 := run(3)

	// Prefetch 1: every remote task pays the RTT serially; expect
	// roughly tasks/workers × (cost + RTT) for the remote half.
	if p1 < time.Duration(160/8)*cost+10*lat {
		t.Errorf("prefetch=1 makespan %v implausibly fast", p1)
	}
	// Prefetch 2 with RTT > cost still leaves gaps; >= 3 should be
	// compute-bound. Either way each level must help substantially.
	if float64(p2) > 0.8*float64(p1) {
		t.Errorf("prefetch=2 (%v) did not improve on prefetch=1 (%v)", p2, p1)
	}
	computeBound := time.Duration(160/8) * cost
	if p3 < computeBound {
		t.Errorf("makespan %v below compute bound %v", p3, computeBound)
	}
	if float64(p3) > 1.4*float64(computeBound) {
		t.Errorf("prefetch=3 makespan %v, want near compute bound %v", p3, computeBound)
	}
}

// TestLatencyInsensitivityWithCoarseTasks reproduces the paper's §1
// claim: with coarse tasks and prefetching, wide-area latency moves the
// makespan only marginally.
func TestLatencyInsensitivityWithCoarseTasks(t *testing.T) {
	// Prefetch must cover the resupply round trip: 1 + ceil(RTT/cost) =
	// 1 + ceil(128/50) = 4 keeps remote workers saturated.
	p := single(Params{Tasks: 80, Prefetch: 4, TaskCost: 50 * time.Millisecond})
	m0 := runFarm(t, p, 8, 0).Makespan
	m64 := runFarm(t, p, 8, 64*time.Millisecond).Makespan
	if float64(m64) > 1.35*float64(m0) {
		t.Errorf("64ms latency grew makespan %v -> %v; master-worker class should tolerate it", m0, m64)
	}
}

func TestRealtimeFarm(t *testing.T) {
	prog, err := BuildProgramFor(single(Params{Tasks: 50, Prefetch: 2, Spin: 10_000}), 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(4, 2*time.Millisecond)
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
	if math.Abs(res.Sum-expectedSum(50)) > 1e-9 {
		t.Errorf("sum = %v", res.Sum)
	}
	if res.Makespan <= 0 {
		t.Error("no makespan measured")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []*Params{
		{Tasks: 0, Prefetch: 1, Batch: 1},
		{Tasks: 1, Prefetch: 0, Batch: 1},
		{Tasks: 1, Prefetch: 1, Batch: 1, TaskCost: -time.Second},
		// A batch farm's results carry no per-task values to hand it.
		{Tasks: 1, Prefetch: 1, Batch: 1, OnTaskDone: func(int64, float64) {}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if err := (&Params{Tasks: 1, Prefetch: 1, Batch: 1}).Validate(); err != nil {
		t.Errorf("minimal params rejected: %v", err)
	}
	if _, err := BuildProgram(&Params{Tasks: 1, Prefetch: 1, Batch: 1}); err == nil {
		t.Error("zero workers accepted by BuildProgram")
	}
}
