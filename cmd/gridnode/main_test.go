package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/stencil"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/telemetry"
	"gridmdo/internal/trace"
)

// freeAddrs reserves n distinct ephemeral loopback ports and returns
// their addresses as an -addrs list. Every listener stays open until all
// n are bound, so no two nodes are handed the same port. They are closed
// before use, so a parallel process could steal a port, but gridnode's
// dial retries tolerate the resulting startup skew.
func freeAddrs(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return strings.Join(addrs, ",")
}

// TestGridnodeServesMetrics runs a two-node stencil in-process, scrapes
// the node-0 /metrics endpoint while the run is live, and checks the
// end-of-run JSON snapshot: per-PE core series and per-device VMI series
// must exist and the flow counters must be nonzero. This is the metrics
// job CI runs.
func TestGridnodeServesMetrics(t *testing.T) {
	base := config{
		Cluster: appflags.Cluster{
			Addrs:    freeAddrs(t, 2),
			Topology: appflags.Topology{Procs: 2, Latency: time.Millisecond},
		},
		App: appflags.App{
			Name:    "stencil",
			Stencil: appflags.Stencil{Objects: 4, Width: 64},
			Sim:     appflags.Sim{Steps: 600, Warmup: 2},
		},
	}
	cfg1 := base
	cfg1.Node = 1
	cfg0 := base
	cfg0.Node = 0
	cfg0.MetricsAddr = "127.0.0.1:0"
	cfg0.MetricsOut = filepath.Join(t.TempDir(), "metrics.json")
	ready := make(chan string, 1)
	cfg0.onMetrics = func(addr string) { ready <- addr }

	errs := make(chan error, 2)
	go func() { errs <- run(cfg1) }()
	go func() { errs <- run(cfg0) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}

	// Scrape during the live run until the core series move.
	var live metrics.Snapshot
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("live scrape never showed nonzero core series")
		}
		snap, err := scrapeJSON(addr)
		if err == nil && snap.Value("core_msgs_processed_total") > 0 && snap.Value("vmi_tcp_frames_out_total") > 0 {
			live = snap
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Prometheus text default, with TYPE headers.
	promBody, err := scrapeText(addr)
	if err == nil { // the run may have just finished; the snapshot file covers that case
		if !strings.Contains(promBody, "# TYPE core_msgs_processed_total counter") {
			t.Errorf("prom exposition missing TYPE line:\n%.400s", promBody)
		}
	}

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("gridnode run never finished")
		}
	}

	// The live scrape already proved per-PE and per-device series flow;
	// spot-check identities.
	assertSeries(t, "live", live)

	// End-of-run snapshot file.
	data, err := os.ReadFile(cfg0.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var final metrics.Snapshot
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatal(err)
	}
	assertSeries(t, "snapshot", final)
	// The run crosses a 1 ms WAN: every ghost was held, and its release
	// lateness observed.
	if final.Value("vmi_delay_late_ns") == 0 {
		t.Error("final snapshot: vmi_delay_late_ns has no observations")
	}
	if final.Value("core_msgs_processed_total") < live.Value("core_msgs_processed_total") {
		t.Error("final snapshot regressed below the live scrape")
	}
}

// hasSeries reports whether the snapshot holds any series named name.
func hasSeries(snap metrics.Snapshot, name string) bool {
	for _, smp := range snap.Series {
		if smp.Name == name {
			return true
		}
	}
	return false
}

func assertSeries(t *testing.T, phase string, snap metrics.Snapshot) {
	t.Helper()
	for _, name := range []string{
		"core_msgs_sent_total",
		"core_msgs_processed_total",
		"core_msgs_enqueued_total",
		"core_queue_depth",
		"core_handler_nanos",
		"vmi_tcp_frames_out_total",
		"vmi_tcp_frames_in_total",
		"vmi_tcp_write_batch_bytes",
		"vmi_delay_occupancy",
		"vmi_delay_late_ns",
	} {
		if !hasSeries(snap, name) {
			t.Errorf("%s: series %s missing", phase, name)
		}
	}
	for _, name := range []string{"core_msgs_processed_total", "vmi_tcp_frames_out_total", "vmi_tcp_bytes_out_total"} {
		if snap.Value(name) == 0 {
			t.Errorf("%s: series %s is zero", phase, name)
		}
	}
	// Per-PE identity: node 0 hosts PE 0.
	var perPE bool
	for _, s := range snap.Series {
		if s.Name == "core_msgs_processed_total" && strings.Contains(s.Labels, `pe="0"`) {
			perPE = true
		}
	}
	if !perPE {
		t.Errorf(`%s: no core_msgs_processed_total{pe="0"} series`, phase)
	}
}

func scrapeJSON(addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics?format=json", addr))
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

func scrapeText(addr string) (string, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// runPair runs a two-node gridnode in-process (node 1 as worker) and
// returns node 0's program result. mod, when non-nil, adjusts each node's
// config before launch.
func runPair(t *testing.T, base config, mod func(node int, c *config)) any {
	t.Helper()
	base.Addrs = freeAddrs(t, 2)
	resCh := make(chan any, 1)
	errs := make(chan error, 2)
	for n := 1; n >= 0; n-- {
		cfg := base
		cfg.Node = n
		if n == 0 {
			cfg.onResult = func(v any) { resCh <- v }
		}
		if mod != nil {
			mod(n, &cfg)
		}
		go func() { errs <- run(cfg) }()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("gridnode run never finished")
		}
	}
	select {
	case v := <-resCh:
		return v
	default:
		t.Fatal("node 0 produced no result")
		return nil
	}
}

// TestGridnodeGridLBMigratesAcrossProcesses is the -lb acceptance run: a
// two-process stencil with an unequal cluster split (-split 3, so cluster
// 0 spans both processes) must complete a grid-aware balancing round in
// which elements migrate across the process boundary, with both nodes'
// location tables agreeing afterwards. The grid strategy never migrates
// across the WAN, so every move stays within cluster 0 — and the ones
// that land on the far side of the node boundary travel the same
// TCP chain as application messages.
func TestGridnodeGridLBMigratesAcrossProcesses(t *testing.T) {
	const (
		procs   = 4
		objects = 16
		perNode = 2
	)
	base := config{
		Cluster: appflags.Cluster{Topology: appflags.Topology{
			Procs:   procs,
			Split:   3, // cluster 0 = PEs {0,1,2}: spans node 0 ({0,1}) and node 1 ({2,3})
			Latency: time.Millisecond,
		}},
		App: appflags.App{
			Name:    "stencil",
			Stencil: appflags.Stencil{Objects: objects, Width: 128, LB: "grid"},
			Sim:     appflags.Sim{Steps: 8, Warmup: 1},
		},
	}
	snapshot := filepath.Join(t.TempDir(), "metrics.json")

	var rts [2]*core.Runtime
	var initial [2][]int32
	v := runPair(t, base, func(node int, c *config) {
		if node == 0 {
			c.MetricsOut = snapshot
		}
		c.onRuntime = func(rt *core.Runtime) {
			rts[node] = rt
			pes := make([]int32, objects)
			for i := range pes {
				pes[i] = rt.Locations().PEOf(core.ElemRef{Array: 0, Index: i})
			}
			initial[node] = pes
		}
	})
	res, ok := v.(*stencil.Result)
	if !ok {
		t.Fatalf("result = %T, want *stencil.Result", v)
	}
	if res.Checksum == 0 {
		t.Error("run produced a zero checksum")
	}

	// The balancer ran at least one round with migrations (counters live
	// on the node hosting PE 0).
	data, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if rounds := snap.Value("core_lb_rounds_total"); rounds < 1 {
		t.Errorf("core_lb_rounds_total = %d, want >= 1", rounds)
	}
	if moves := snap.Value("core_lb_moves_total"); moves < 1 {
		t.Errorf("core_lb_moves_total = %d, want >= 1", moves)
	}

	// Location tables: both processes agree, and at least one element
	// crossed the node boundary.
	nodeOf := func(pe int32) int { return int(pe) / perNode }
	crossed := 0
	for i := 0; i < objects; i++ {
		ref := core.ElemRef{Array: 0, Index: i}
		pe0, pe1 := rts[0].Locations().PEOf(ref), rts[1].Locations().PEOf(ref)
		if pe0 != pe1 {
			t.Errorf("element %d: node 0 places it on PE %d, node 1 on PE %d", i, pe0, pe1)
		}
		if initial[0][i] != initial[1][i] {
			t.Errorf("element %d: initial placement disagrees across nodes (%d vs %d)", i, initial[0][i], initial[1][i])
		}
		if nodeOf(initial[0][i]) != nodeOf(pe0) {
			crossed++
		}
	}
	if crossed == 0 {
		t.Error("no element migrated across the process boundary")
	}
	t.Logf("%d of %d elements crossed the process boundary", crossed, objects)
}

// TestSignalFlushWritesArtifacts drives the signal path with a fake
// channel: a SIGTERM must flush the metrics and trace snapshots exactly
// once and exit with the conventional 128+signal status.
func TestSignalFlushWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	reg.Counter("test_series").Inc()
	tr := trace.New(2)
	tr.Record(trace.Event{PE: 1, Kind: trace.EvBegin, At: time.Millisecond, MsgID: 7})

	art := &artifacts{
		metricsPath: filepath.Join(dir, "metrics.json"),
		reg:         reg,
		tracePath:   filepath.Join(dir, "node1.trace.json"),
		tr:          tr,
		node:        1, peLo: 1, peHi: 2,
		start: time.Now().Add(-time.Second),
	}

	ch := make(chan os.Signal, 1)
	codes := make(chan int, 1)
	watchSignals(ch, art, func(code int) { codes <- code }, nil)
	ch <- syscall.SIGTERM

	select {
	case code := <-codes:
		if want := 128 + int(syscall.SIGTERM); code != want {
			t.Errorf("exit code %d, want %d", code, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal watcher never exited")
	}

	var m metrics.Snapshot
	data, err := os.ReadFile(art.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !hasSeries(m, "test_series") {
		t.Error("metrics snapshot missing test_series")
	}

	tf, err := os.Open(art.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	snap, err := trace.ReadSnapshot(tf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Node != 1 || snap.PELo != 1 || snap.PEHi != 2 {
		t.Errorf("snapshot PE range: %+v", snap)
	}
	if len(snap.Events) != 1 || snap.Events[0].MsgID != 7 {
		t.Errorf("snapshot events: %+v", snap.Events)
	}

	// A second flush (the normal-completion path racing the handler) is a
	// no-op, not a rewrite.
	if err := os.Remove(art.metricsPath); err != nil {
		t.Fatal(err)
	}
	if err := art.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(art.metricsPath); !os.IsNotExist(err) {
		t.Error("second flush rewrote the metrics snapshot")
	}
}

// TestWatchSignalsClosedChannel: closing the channel (signal.Stop on the
// normal path) must end the watcher without flushing or exiting.
func TestWatchSignalsClosedChannel(t *testing.T) {
	art := &artifacts{}
	ch := make(chan os.Signal)
	exited := make(chan int, 1)
	watchSignals(ch, art, func(code int) { exited <- code }, nil)
	close(ch)
	select {
	case code := <-exited:
		t.Fatalf("watcher exited with %d on channel close", code)
	case <-time.After(100 * time.Millisecond):
	}
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

// startCluster runs every node of cfg's cluster through run, backends
// first: node 0 is the gateway, with gateHooks applied to its config
// alone. It returns the job API address once the gateway accepts jobs,
// and each node's run error channel, node 0's first.
func startCluster(t *testing.T, cfg config, gateHooks func(c *config)) (string, []chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errs := make([]chan error, len(strings.Split(cfg.Addrs, ",")))
	for n := len(errs) - 1; n >= 0; n-- {
		c := cfg
		c.Node = n
		if n == 0 {
			gateHooks(&c)
			c.onListen = func(addr string) { ready <- addr }
		}
		errs[n] = make(chan error, 1)
		go func() { errs[n] <- run(c) }()
	}
	select {
	case addr := <-ready:
		return addr, errs
	case <-time.After(15 * time.Second):
		t.Fatal("gate never came up")
		return "", nil
	}
}

// waitRuns waits for every node's run to return nil.
func waitRuns(t *testing.T, errs []chan error) {
	t.Helper()
	for n, ch := range errs {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("node %d: %v", n, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d never exited", n)
		}
	}
}

// TestGatewayStandalone boots the whole gateway stack in one process (a
// one-address cluster): HTTP ingress, admission, the serve farm, and
// result retrieval — including idempotent resubmits that must map to the
// original job.
func TestGatewayStandalone(t *testing.T) {
	cfg := config{
		Cluster: appflags.Cluster{Addrs: "127.0.0.1:0", Topology: appflags.Topology{Procs: 4, Latency: time.Millisecond}},
		App:     appflags.App{Name: "taskfarm", Farm: appflags.Farm{Shards: 2, Batch: 8, Prefetch: 2, Spin: 200, Skew: 1, Steal: true, Serve: true}},
		listen:  "127.0.0.1:0",
		tenants: "acme:2,initech",
	}
	rts := make(chan *core.Runtime, 1)
	svcs := make(chan *taskfarm.Service, 1)
	addr, errs := startCluster(t, cfg, func(c *config) {
		c.onRuntime = func(rt *core.Runtime) { rts <- rt }
		c.onService = func(s *taskfarm.Service) { svcs <- s }
	})
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
	waitRuns(t, errs)

	// After shutdown the ingress must be gone.
	if _, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(`{"tenant":"acme"}`)); err == nil {
		t.Error("ingress still accepting after shutdown")
	}
}

// TestGatewayClusterBackend runs the full deployment shape in-process:
// the gateway as node 0, a -serve backend as node 1, jobs flowing over
// the gate's HTTP ingress and executing on both nodes' PEs. Cross-node
// job injection uses rt.Post, whose frames must carry a truthful source
// PE or the receiver's reliability acks route back to itself and the
// farm wedges.
func TestGatewayClusterBackend(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := config{
		Cluster: appflags.Cluster{Addrs: addrs, Topology: appflags.Topology{Procs: 4, Latency: time.Millisecond}},
		App:     appflags.App{Name: "taskfarm", Farm: appflags.Farm{Shards: 2, Batch: 8, Prefetch: 2, Spin: 200, Skew: 1, Steal: true, Serve: true}},
		listen:  "127.0.0.1:0",
		tenants: "acme",
	}

	rts := make(chan *core.Runtime, 1)
	svcs := make(chan *taskfarm.Service, 1)
	addr, errs := startCluster(t, cfg, func(c *config) {
		c.onRuntime = func(rt *core.Runtime) { rts <- rt }
		c.onService = func(s *taskfarm.Service) { svcs <- s }
	})
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
	waitRuns(t, errs)
}

// TestGatewayTelemetryTrace is the end-to-end telemetry assertion over a
// real TCP deployment: the gateway (collector) as node 0, a -telemetry
// backend as node 1. Jobs submitted over HTTP must yield (a) a cluster
// metrics view whose worker task counter aggregates to the exact
// submitted total, and (b) at least one job trace whose span tree crosses
// both processes with no broken parent links.
func TestGatewayTelemetryTrace(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := config{
		Cluster: appflags.Cluster{Addrs: addrs, Topology: appflags.Topology{Procs: 4, Latency: time.Millisecond}},
		App:     appflags.App{Name: "taskfarm", Farm: appflags.Farm{Shards: 2, Batch: 4, Prefetch: 2, Spin: 2000, Skew: 1, Serve: true}},
		Obs:     appflags.Obs{Telemetry: true, TelemetryInterval: 50 * time.Millisecond},
		listen:  "127.0.0.1:0",
		tenants: "acme",
	}

	rts := make(chan *core.Runtime, 1)
	colls := make(chan *telemetry.Collector, 1)
	addr, errs := startCluster(t, cfg, func(c *config) {
		c.onRuntime = func(rt *core.Runtime) { rts <- rt }
		c.onCollector = func(c *telemetry.Collector) { colls <- c }
	})
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
	waitRuns(t, errs)
}

// TestGatewaySIGTERMStopsCluster: SIGTERM on the gateway node runs the
// normal epilogue instead of exiting — the gateway's run returns nil,
// the backend gets the shutdown announcement so its run returns nil
// too, and the ingress refuses jobs afterwards.
func TestGatewaySIGTERMStopsCluster(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := config{
		Cluster: appflags.Cluster{Addrs: addrs, Topology: appflags.Topology{Procs: 4, Latency: time.Millisecond}},
		App:     appflags.App{Name: "taskfarm", Farm: appflags.Farm{Shards: 2, Batch: 8, Prefetch: 2, Spin: 200, Skew: 1, Serve: true}},
		listen:  "127.0.0.1:0",
		tenants: "acme",
	}

	sigs := make(chan os.Signal, 1)
	addr, errs := startCluster(t, cfg, func(c *config) { c.signals = sigs })
	if jr := submitJob(t, addr, `{"tenant":"acme","key":"before","wait":true}`); jr.State != "done" {
		t.Errorf("job before SIGTERM: %+v", jr)
	}

	sigs <- syscall.SIGTERM
	waitRuns(t, errs)

	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(`{"tenant":"acme","key":"after"}`))
	if err == nil {
		resp.Body.Close()
		t.Errorf("job after SIGTERM got status %d, want a refused connection", resp.StatusCode)
	}
}

// TestServeFlagErrors: -serve runs only the taskfarm, and never with
// -membership; -membership, too, runs only the taskfarm. All are refused
// at startup.
func TestServeFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		app        string
		serve      bool
		membership bool
		want       string
	}{
		{"stencil", true, false, "-serve supports -app taskfarm only"},
		{"taskfarm", true, true, "-serve does not support -membership"},
		{"stencil", false, true, "-membership supports -app taskfarm only"},
		{"leanmd", false, true, "-membership supports -app taskfarm only"},
	} {
		cfg := config{
			Cluster: appflags.Cluster{Addrs: "127.0.0.1:0", Membership: tc.membership, Topology: appflags.Topology{Procs: 4}},
			App: appflags.App{Name: tc.app, Sim: appflags.Sim{Steps: 2},
				Stencil: appflags.Stencil{Objects: 4, Width: 16}, Farm: appflags.Farm{Serve: tc.serve}},
		}
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-app %s -serve=%v -membership=%v: err %v, want %q", tc.app, tc.serve, tc.membership, err, tc.want)
		}
	}
}

// TestObsFlagErrors: a negative -trace-cap or -telemetry-interval fails
// the run with an error naming the flag, instead of being read as "auto"
// or the default.
func TestObsFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		obs  appflags.Obs
		want string
	}{
		{appflags.Obs{TraceCap: -1}, "-trace-cap"},
		{appflags.Obs{Telemetry: true, TelemetryInterval: -time.Millisecond}, "-telemetry-interval"},
	} {
		cfg := config{
			Cluster: appflags.Cluster{Addrs: "127.0.0.1:0", Topology: appflags.Topology{Procs: 4}},
			App: appflags.App{Name: "stencil", Sim: appflags.Sim{Steps: 2},
				Stencil: appflags.Stencil{Objects: 4, Width: 16}},
			Obs: tc.obs,
		}
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err %v, want one naming %s", tc.obs, err, tc.want)
		}
	}
}
