package telemetry

import (
	"math/rand"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// TestClusterConvergesUnderSeededDrops drives 16 synthetic agents against
// one collector with manual report ticks, so lags are exact period
// counts. On a clean channel the cluster aggregate equals ground truth
// after every period; with 5 % of reports dropped (seeded) it heals
// within two full-snapshot cadences once reporting continues.
func TestClusterConvergesUnderSeededDrops(t *testing.T) {
	const nodes, periods, drop = 16, 32, 0.05
	rng := rand.New(rand.NewSource(1))
	dropped := 0
	build := func(coll *Collector, rate float64) ([]*Agent, []*metrics.Counter) {
		agents := make([]*Agent, nodes)
		tasks := make([]*metrics.Counter, nodes)
		for i := range agents {
			reg := metrics.NewRegistry()
			tasks[i] = reg.Counter("conv_tasks_total")
			a, err := NewAgent(AgentConfig{
				Node: i, Registry: reg, Epoch: time.Unix(1_700_000_000, 0),
				Send: func(b []byte) error {
					if rate > 0 && rng.Float64() < rate {
						dropped++
						return nil // frame lost on the wire
					}
					return coll.Ingest(b)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			agents[i] = a
		}
		return agents, tasks
	}
	reportAll := func(agents []*Agent) {
		for _, a := range agents {
			if err := a.ReportOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// mutate runs one period's traffic and returns the new ground truth.
	mutate := func(tasks []*metrics.Counter, p int, truth int64) int64 {
		for i, c := range tasks {
			inc := int64(1 + (p+i)%7)
			c.Add(inc)
			truth += inc
		}
		return truth
	}

	coll := NewCollector(CollectorConfig{})
	agents, tasks := build(coll, 0)
	var truth int64
	for p := 0; p < periods; p++ {
		truth = mutate(tasks, p, truth)
		reportAll(agents)
		if got := coll.ClusterMetrics().Value("conv_tasks_total"); got != truth {
			t.Fatalf("clean channel, period %d: aggregate %d, truth %d", p, got, truth)
		}
	}

	coll = NewCollector(CollectorConfig{})
	agents, tasks = build(coll, drop)
	truth = 0
	for p := 0; p < periods; p++ {
		truth = mutate(tasks, p, truth)
		reportAll(agents)
	}
	lag := 0
	for coll.ClusterMetrics().Value("conv_tasks_total") != truth {
		lag++
		if lag > 2*fullEvery {
			t.Fatalf("lossy channel not healed after %d quiet periods (%d reports dropped)", 2*fullEvery, dropped)
		}
		reportAll(agents)
	}
	if dropped == 0 {
		t.Error("no report was dropped; drop injection is dead")
	}
	t.Logf("%d reports dropped, healed in %d period(s)", dropped, lag)
}

// TestJobTraceCompletenessUnderDrops pushes 60 jobs through a gateway in
// front of a serve-mode farm on the real-time runtime, with the agent's
// span stream losing 5 % of its reports (seeded). Each changed span rides
// several consecutive reports, so at least 90 % of job trees must still
// come back complete from the collector.
func TestJobTraceCompletenessUnderDrops(t *testing.T) {
	const procs, jobs, drop = 4, 60, 0.05
	reg := metrics.NewRegistry()
	fp := &taskfarm.Params{
		Serve: true, Workers: procs,
		Shards: 2, Batch: 4, Prefetch: 2, Spin: 2000,
		CostSkew: 1, Seed: 1, Metrics: reg,
	}
	svc, err := taskfarm.NewService(fp)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskfarm.BuildProgram(fp)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.New([]int{procs / 2, procs - procs/2}, topology.WithInterLatency(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	coll := NewCollector(CollectorConfig{})
	tr := trace.NewWithCapacity(procs, trace.DrainedCapacity)
	gw, err := gate.New(gate.Config{
		Tenants:  []gate.TenantConfig{{Name: "t"}},
		Metrics:  reg,
		Observer: coll,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	svc.OnResult(gw.OnResult)

	ready := make(chan struct{})
	rt, err := core.NewRuntime(topo, prog,
		core.WithMetrics(reg), core.WithTrace(tr),
		core.WithLifecycle(core.Lifecycle{OnStart: func() { close(ready) }}))
	if err != nil {
		t.Fatal(err)
	}
	svc.Bind(rt)

	rng := rand.New(rand.NewSource(2))
	dropped := 0
	agent, err := NewAgent(AgentConfig{
		Node: 0, Registry: reg, Tracer: tr,
		Epoch: rt.Epoch(), NumPE: procs,
		Send: func(b []byte) error {
			if rng.Float64() < drop {
				dropped++
				return nil
			}
			return coll.Ingest(b)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { _, err := rt.Run(); done <- err }()
	<-ready
	stop := func() {
		rt.Stop()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, _, err := gw.Submit("t", "")
		if err != nil {
			stop()
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		// Report per job so span digests ride many separately droppable
		// frames instead of one bulk flush.
		_ = agent.ReportOnce()
		select {
		case <-j.Done:
		case <-time.After(30 * time.Second):
			stop()
			t.Fatalf("job %s never completed", j.ID)
		}
	}
	// A handful of quiet ticks flushes the span tail even through drops.
	for i := 0; i < 8; i++ {
		_ = agent.ReportOnce()
	}
	stop()
	gw.Close(nil)

	complete := 0
	for _, id := range ids {
		if doc, ok := coll.JobTrace(id); ok && doc.Complete {
			complete++
		}
	}
	if dropped == 0 {
		t.Error("no report was dropped; drop injection is dead")
	}
	if 10*complete < 9*jobs {
		t.Errorf("%d/%d job trees complete through %d dropped reports; want >= 90%%", complete, jobs, dropped)
	}
	t.Logf("%d/%d job trees complete, %d reports dropped", complete, jobs, dropped)
}
