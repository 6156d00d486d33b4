package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/stencil"
	"gridmdo/internal/trace"
)

// freePort reserves an ephemeral loopback port and returns its address.
// The listener is closed before use, so a parallel process could steal the
// port, but gridnode's dial retries tolerate the resulting startup skew.
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

// TestGridnodeServesMetrics runs a two-node stencil in-process, scrapes
// the node-0 /metrics endpoint while the run is live, and checks the
// end-of-run JSON snapshot: per-PE core series and per-device VMI series
// must exist and the flow counters must be nonzero. This is the metrics
// job CI runs.
func TestGridnodeServesMetrics(t *testing.T) {
	base := config{
		Cluster: appflags.Cluster{
			Addrs:   freePort(t) + "," + freePort(t),
			Procs:   2,
			Latency: time.Millisecond,
		},
		Stencil: appflags.Stencil{Objects: 4, Width: 64},
		Sim:     appflags.Sim{Steps: 600, Warmup: 2},
		app:     "stencil",
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
		if !snap.Has(name) {
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
	base.Addrs = freePort(t) + "," + freePort(t)
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
		Cluster: appflags.Cluster{
			Procs:   procs,
			Split:   3, // cluster 0 = PEs {0,1,2}: spans node 0 ({0,1}) and node 1 ({2,3})
			Latency: time.Millisecond,
		},
		Stencil: appflags.Stencil{Objects: objects, Width: 128, LB: "grid"},
		Sim:     appflags.Sim{Steps: 8, Warmup: 1},
		app:     "stencil",
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

// TestGridnodeCheckpointRestartDifferentPEs is the fault-tolerance
// acceptance run: a 4-PE two-process stencil writes per-node partial
// checkpoints; a 2-PE two-process restart merges them and must reproduce
// the verification checksum bit-identically versus a straight 2-PE run.
// (With two blocks per PE and two nodes, every reduction fold site
// combines exactly two values, and IEEE-754 addition is commutative, so
// both 2-PE checksums are bit-deterministic; bitwise equality therefore
// proves the PUP round-trip preserved the field exactly.)
func TestGridnodeCheckpointRestartDifferentPEs(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "ck")
	base := config{
		Cluster: appflags.Cluster{Latency: time.Millisecond},
		Stencil: appflags.Stencil{Objects: 4, Width: 64},
		Sim:     appflags.Sim{Steps: 6, Warmup: 0},
		app:     "stencil",
	}

	checksum := func(v any) float64 {
		t.Helper()
		res, ok := v.(*stencil.Result)
		if !ok {
			t.Fatalf("result = %T, want *stencil.Result", v)
		}
		return res.Checksum
	}

	// Run A: 4 PEs across two processes, checkpointing at completion.
	a := base
	a.Procs = 4
	a.checkpoint = prefix
	sumA := checksum(runPair(t, a, nil))
	for n := 0; n < 2; n++ {
		if _, err := os.Stat(fmt.Sprintf("%s.node%d", prefix, n)); err != nil {
			t.Fatalf("missing checkpoint part: %v", err)
		}
	}

	// Run B: restart the merged checkpoint on 2 PEs (different PE count,
	// different placement). Restored blocks have completed all steps, so
	// the run reports the restored field's checksum.
	b := base
	b.Procs = 2
	b.restart = prefix
	sumB := checksum(runPair(t, b, nil))

	// Run C: the same program straight through on 2 PEs.
	c := base
	c.Procs = 2
	sumC := checksum(runPair(t, c, nil))

	if math.Float64bits(sumB) != math.Float64bits(sumC) {
		t.Errorf("restart checksum %x (%.17g) != straight-run checksum %x (%.17g)",
			math.Float64bits(sumB), sumB, math.Float64bits(sumC), sumC)
	}
	// The 4-PE run folds four root partials in arrival order, so it is
	// only guaranteed equal up to association of the float64 sums.
	if diff := math.Abs(sumA - sumB); diff > 1e-9*math.Abs(sumB) {
		t.Errorf("4-PE checksum %.17g differs from restored checksum %.17g by %g", sumA, sumB, diff)
	}
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
	if !m.Has("test_series") {
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
