package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/telemetry"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestParseTenants(t *testing.T) {
	tcs, err := parseTenants("acme:3:128, initech, batch:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tcs) != 3 || tcs[0].Weight != 3 || tcs[0].MaxQueue != 128 ||
		tcs[1].Name != "initech" || tcs[2].Weight != 2 || tcs[2].MaxQueue != 0 {
		t.Errorf("parsed %+v", tcs)
	}
	for _, bad := range []string{"", "a:x", "a:0", "a:1:0", "a:1:2:3", ":3"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

type jobReply struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Duplicate bool     `json:"duplicate"`
	Value     *float64 `json:"value"`
}

func submitJob(t *testing.T, base, body string) jobReply {
	t.Helper()
	resp, err := http.Post("http://"+base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var jr jobReply
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestGridgateStandalone boots the whole gateway stack in one process:
// HTTP ingress, admission, the serve farm, and result retrieval —
// including idempotent resubmits that must map to the original job.
func TestGridgateStandalone(t *testing.T) {
	cfg := config{
		Cluster: appflags.Cluster{Procs: 4, Latency: time.Millisecond},
		Farm:    appflags.Farm{Shards: 2, Batch: 8, Prefetch: 2, Spin: 200, Skew: 1, Steal: true},
		listen:  "127.0.0.1:0",
		tenants: "acme:2,initech",
	}
	ready := make(chan string, 1)
	rts := make(chan *core.Runtime, 1)
	svcs := make(chan *taskfarm.Service, 1)
	cfg.onListen = func(addr string) { ready <- addr }
	cfg.onRuntime = func(rt *core.Runtime) { rts <- rt }
	cfg.onService = func(s *taskfarm.Service) { svcs <- s }
	errs := make(chan error, 1)
	go func() { errs <- run(cfg) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("gate never came up")
	}
	rt, svc := <-rts, <-svcs

	// Submit with wait=true from both tenants, a third of the keys
	// duplicated. Duplicates must return the original completed job.
	const jobs = 60
	var wg sync.WaitGroup
	idByKey := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := "acme"
			if i%2 == 1 {
				tenant = "initech"
			}
			jr := submitJob(t, addr, fmt.Sprintf(`{"tenant":%q,"key":"k%d","wait":true}`, tenant, i))
			if jr.State != "done" || jr.Value == nil {
				t.Errorf("job %d: %+v", i, jr)
			}
			idByKey[i] = jr.ID
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i += 3 {
		tenant := "acme"
		if i%2 == 1 {
			tenant = "initech"
		}
		jr := submitJob(t, addr, fmt.Sprintf(`{"tenant":%q,"key":"k%d"}`, tenant, i))
		if !jr.Duplicate || jr.ID != idByKey[i] {
			t.Errorf("resubmit k%d returned %+v, want duplicate of %s", i, jr, idByKey[i])
		}
	}

	// The farm must have executed each distinct job exactly once.
	if got := svc.Completed(); got != jobs {
		t.Errorf("farm completed %d, want %d", got, jobs)
	}
	if d := svc.DoubleExecs(); d != 0 {
		t.Errorf("%d double executions", d)
	}

	// Per-tenant metrics are visible through the gate's own endpoint.
	resp, err := http.Get("http://" + addr + "/metrics?tenant=acme&format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := snap.Value("gate_jobs_completed_total"); v != jobs/2 {
		t.Errorf("acme completed %d, want %d", v, jobs/2)
	}

	rt.Stop()
	select {
	case err := <-errs:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("gridgate never exited")
	}

	// After shutdown the ingress must be gone.
	if _, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(`{"tenant":"acme"}`)); err == nil {
		t.Error("ingress still accepting after shutdown")
	}
}

// serveBackend assembles what `gridnode -serve` runs: a worker node of
// the serve farm over the real TCP chain, stopping on the gateway's
// shutdown announcement.
func serveBackend(t *testing.T, cfg config, node int, errs chan<- error) {
	lay, err := cfg.Cluster.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	farm := cfg.Farm
	farm.Serve = true
	p := farm.Params(cfg.Procs, reg, nil)
	prog, err := taskfarm.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var rt *core.Runtime
	var mu sync.Mutex
	builder := vmi.NewChainBuilder(node, lay.AddrMap, func(pe int32) int { return lay.NodeOf(int(pe)) }).
		Metrics(reg).
		OnControl(func(f *vmi.Frame) {
			if f.Dst == vmi.ControlShutdown {
				mu.Lock()
				r := rt
				mu.Unlock()
				if r != nil {
					r.Stop()
				}
			}
		})
	stack, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stack.Listen(); err != nil {
		t.Fatal(err)
	}
	rtOpts := []core.Option{
		core.WithCluster(core.ClusterConfig{
			Transport: stack,
			NodeOf:    lay.NodeOf,
			Node:      node,
			PELo:      lay.PELo(node),
			PEHi:      lay.PEHi(node),
		}),
		core.WithMetrics(reg),
	}
	var tr *trace.Tracer
	if cfg.Telemetry {
		tr = trace.NewWithCapacity(cfg.Procs, trace.DefaultCapacity)
		rtOpts = append(rtOpts, core.WithTrace(tr))
	}
	r, err := core.NewRuntime(lay.Topo, prog, rtOpts...)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	rt = r
	mu.Unlock()
	var agent *telemetry.Agent
	if cfg.Telemetry {
		agent, err = telemetry.NewAgent(telemetry.AgentConfig{
			Node: node, Registry: reg, Tracer: tr,
			Epoch: r.Epoch(), NumPE: cfg.Procs,
			Interval: cfg.TelemetryInterval,
			Send: func(b []byte) error {
				return stack.SendControl(0, &vmi.Frame{Src: int32(node), Dst: vmi.ControlTelemetry, Body: b})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		agent.Start()
	}
	go func() {
		_, err := r.Run()
		if agent != nil {
			agent.Stop()
		}
		stack.Close()
		errs <- err
	}()
}

// TestGridgateClusterBackend runs the full deployment shape in-process:
// gridgate as node 0, a -serve backend as node 1, jobs flowing over the
// gate's HTTP ingress and executing on both nodes' PEs. The reliability
// layer is on, as in the CI smoke: cross-node job injection uses
// rt.Post, whose frames must carry a truthful source PE or the
// receiver's acks route back to itself and the farm wedges.
func TestGridgateClusterBackend(t *testing.T) {
	addrs := freePort(t) + "," + freePort(t)
	cfg := config{
		Cluster: appflags.Cluster{Addrs: addrs, Procs: 4, Latency: time.Millisecond},
		Farm:    appflags.Farm{Shards: 2, Batch: 8, Prefetch: 2, Spin: 200, Skew: 1, Steal: true},
		listen:  "127.0.0.1:0",
		tenants: "acme",
	}

	backendErr := make(chan error, 1)
	backendCfg := cfg
	backendCfg.Node = 1
	serveBackend(t, backendCfg, 1, backendErr)

	ready := make(chan string, 1)
	rts := make(chan *core.Runtime, 1)
	svcs := make(chan *taskfarm.Service, 1)
	cfg.onListen = func(addr string) { ready <- addr }
	cfg.onRuntime = func(rt *core.Runtime) { rts <- rt }
	cfg.onService = func(s *taskfarm.Service) { svcs <- s }
	gateErr := make(chan error, 1)
	go func() { gateErr <- run(cfg) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(15 * time.Second):
		t.Fatal("gate never came up")
	}
	rt, svc := <-rts, <-svcs

	const jobs = 40
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jr := submitJob(t, addr, fmt.Sprintf(`{"tenant":"acme","key":"c%d","wait":true}`, i))
			if jr.State != "done" {
				t.Errorf("job %d: %+v", i, jr)
			}
		}(i)
	}
	wg.Wait()
	if got, d := svc.Completed(), svc.DoubleExecs(); got != jobs || d != 0 {
		t.Errorf("completed %d (want %d), doubles %d", got, jobs, d)
	}

	rt.Stop()
	for _, ch := range []chan error{gateErr, backendErr} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("process never exited")
		}
	}
}

// TestGridgateTelemetryTrace is the end-to-end telemetry assertion over a
// real TCP deployment: gridgate (collector) as node 0, a -telemetry
// backend as node 1. Jobs submitted over HTTP must yield (a) a cluster
// metrics view whose worker task counter aggregates to the exact
// submitted total, and (b) at least one job trace whose span tree crosses
// both processes with no broken parent links.
func TestGridgateTelemetryTrace(t *testing.T) {
	addrs := freePort(t) + "," + freePort(t)
	cfg := config{
		Cluster: appflags.Cluster{Addrs: addrs, Procs: 4, Latency: time.Millisecond},
		Farm:    appflags.Farm{Shards: 2, Batch: 4, Prefetch: 2, Spin: 2000, Skew: 1},
		Obs:     appflags.Obs{Telemetry: true, TelemetryInterval: 50 * time.Millisecond},
		listen:  "127.0.0.1:0",
		tenants: "acme",
	}

	backendErr := make(chan error, 1)
	backendCfg := cfg
	backendCfg.Node = 1
	serveBackend(t, backendCfg, 1, backendErr)

	ready := make(chan string, 1)
	rts := make(chan *core.Runtime, 1)
	colls := make(chan *telemetry.Collector, 1)
	cfg.onListen = func(addr string) { ready <- addr }
	cfg.onRuntime = func(rt *core.Runtime) { rts <- rt }
	cfg.onCollector = func(c *telemetry.Collector) { colls <- c }
	gateErr := make(chan error, 1)
	go func() { gateErr <- run(cfg) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(15 * time.Second):
		t.Fatal("gate never came up")
	}
	rt, coll := <-rts, <-colls

	const jobs = 30
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jr := submitJob(t, addr, fmt.Sprintf(`{"tenant":"acme","key":"t%d","wait":true}`, i))
			if jr.State != "done" {
				t.Errorf("job %d: %+v", i, jr)
			}
			ids[i] = jr.ID
		}(i)
	}
	wg.Wait()

	// Live aggregation: every node's worker counter reaches the collector
	// within a few reporting periods, and their cluster-wide sum is the
	// exact number of tasks the farm executed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := coll.ClusterMetrics().Value("taskfarm_worker_tasks_total"); v == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster worker counter stuck at %d, want %d",
				coll.ClusterMetrics().Value("taskfarm_worker_tasks_total"), jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ns := coll.Nodes(); len(ns) != 2 {
		t.Errorf("collector heard from %d nodes, want 2: %+v", len(ns), ns)
	}

	// Job tracing: some job's span tree must cross both processes. Spans
	// trickle in over a couple of reports (the resend factor), so poll.
	var crossed *telemetry.JobTraceDoc
	for time.Now().Before(deadline) && crossed == nil {
		for _, id := range ids {
			doc, ok := coll.JobTrace(id)
			if ok && len(doc.Nodes) >= 2 {
				crossed = doc
				break
			}
		}
		if crossed == nil {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if crossed == nil {
		t.Fatal("no job trace crossed two processes")
	}
	seen := make(map[uint64]bool, len(crossed.Spans))
	for _, s := range crossed.Spans {
		seen[s.ID] = true
	}
	if !seen[crossed.Root] {
		t.Error("trace lost its own root span")
	}
	for _, s := range crossed.Spans {
		if s.ID != crossed.Root && !seen[s.Parent] {
			t.Errorf("span %#x has broken parent link %#x", s.ID, s.Parent)
		}
	}

	// The same trace is served over HTTP next to the job API, and the
	// cluster endpoints answer on the gate's own listener.
	for _, path := range []string{
		"/v1/jobs/" + crossed.JobID + "/trace",
		"/v1/cluster/metrics?format=json",
		"/v1/cluster/health",
		"/v1/cluster/slo",
		"/healthz", "/readyz",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	// SLO: 30 fast jobs against a 100ms objective must not be burning.
	var slo struct {
		Tenants []telemetry.SLOStatus `json:"tenants"`
	}
	resp, err := http.Get("http://" + addr + "/v1/cluster/slo")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slo.Tenants) != 1 || slo.Tenants[0].Firing {
		t.Errorf("slo view: %+v", slo.Tenants)
	}

	rt.Stop()
	for _, ch := range []chan error{gateErr, backendErr} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("process never exited")
		}
	}
}
