package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
)

// The gate-soak experiment drives the full gateway stack — HTTP
// ingress, admission control, weighted fair queueing, idempotent
// resubmit, and the serve-mode farm behind it — over a real TCP
// listener, and measures the three properties the gateway exists to
// provide:
//
//  1. Latency masking at the edge: submit→result p99 under a paced solo
//     load (baseline phase).
//  2. Exactly-once under retry pressure: a soak of many thousands of
//     jobs from many concurrent connections, a fixed fraction of them
//     duplicate-key resubmits, with zero double-executions (soak phase).
//  3. Isolation under overload: a flooding tenant must drown in 429s
//     while a paced tenant's p99 stays within 2x its solo baseline
//     (backpressure phase).
//
// All three phases share one farm and one gateway; per-phase counters
// are isolated with Snapshot.Sub deltas rather than fresh registries,
// so the experiment also exercises the metrics surface the dashboards
// use.

// The serve farm's shape and the gateway's dispatch pipeline, the same at
// every scale. The shallow gateMaxInflight makes the farm latency-bound:
// each task crosses the inter-group hop, so drain ≈ gateMaxInflight/RTT.
const (
	gateShards      = 2
	gateBatch       = 4
	gatePrefetch    = 2
	gateSpin        = 20_000
	gateMaxInflight = 4
	gateSubmitBatch = 4
	// gateDupRate is the fraction of soak submissions that reuse an
	// already-submitted idempotency key, drawn from a gateSeed PRNG.
	gateDupRate = 0.10
	gateSeed    = 1
)

// GateConfig sizes the gate-soak experiment.
type GateConfig struct {
	// Procs is the serve farm's worker (and PE) count.
	Procs int
	// BaselineJobs/BaselineClients size the solo-latency phase.
	BaselineJobs, BaselineClients int
	// SoakJobs/SoakClients size the throughput phase.
	SoakJobs, SoakClients int
	// PacedJobs arrive every PacedEvery from the paced tenant while
	// FloodClients blast unpaced submissions at a flood tenant whose
	// queue is capped at FloodQueue.
	PacedJobs    int
	PacedEvery   time.Duration
	FloodClients int
	FloodQueue   int
	// SoakP99Bound is the stated acceptance bound on the soak phase's
	// p99 submit→result latency (0 disables the check).
	SoakP99Bound time.Duration
}

// GatePhase is one measured phase.
type GatePhase struct {
	Jobs       int
	Clients    int
	Duplicates int64
	JobsPerSec float64
	P50MS      float64
	P99MS      float64
}

// GateBackpressure is the isolation phase's measurement.
type GateBackpressure struct {
	PacedJobs   int
	PacedP99MS  float64
	P99Ratio    float64 // paced under flood / solo
	FloodSent   int64
	Flood429s   int64
	RejectedPct float64
}

// GateChecks are the acceptance gates the soak asserts.
type GateChecks struct {
	ExactlyOnce      bool // completed == unique submissions
	ZeroDoubleExecs  bool // farm-side double-execution audit
	SoakP99Within    bool // soak p99 <= SoakP99Bound
	FloodThrottled   bool // flood tenant saw 429s
	PacedWithinBound bool // paced p99 <= 2x solo p99
}

func (c GateChecks) ok() bool {
	return c.ExactlyOnce && c.ZeroDoubleExecs && c.SoakP99Within &&
		c.FloodThrottled && c.PacedWithinBound
}

// GateReport is the result of the gate-soak experiment.
type GateReport struct {
	Baseline     GatePhase
	Soak         GatePhase
	Backpressure GateBackpressure
	Completed    int64 // jobs the farm completed
	Unique       int64 // distinct submissions
	DoubleExecs  int64
	Checks       GateChecks
}

// gateBench is the assembled in-process stack: serve farm, gateway, and
// a real TCP listener external clients hit.
type gateBench struct {
	reg  *metrics.Registry
	svc  *taskfarm.Service
	gw   *gate.Gateway
	c    *core.Cluster
	srv  *http.Server
	ln   net.Listener
	base string // host:port
	done chan error
}

func buildGateBench(cfg GateConfig) (*gateBench, error) {
	reg := metrics.NewRegistry()
	fp := &taskfarm.Params{
		Serve: true, Workers: cfg.Procs,
		Shards: gateShards, Batch: gateBatch, Steal: true,
		Prefetch: gatePrefetch, Spin: gateSpin,
		CostSkew: 1, Seed: 1, Metrics: reg,
	}
	svc, err := taskfarm.NewService(fp)
	if err != nil {
		return nil, err
	}
	gw, err := gate.New(gate.Config{
		Tenants: []gate.TenantConfig{
			{Name: "solo", Weight: 1, MaxQueue: 1 << 16},
			{Name: "paced", Weight: 2, MaxQueue: 1 << 16},
			{Name: "flood", Weight: 1, MaxQueue: cfg.FloodQueue},
		},
		MaxInflight: gateMaxInflight,
		SubmitBatch: gateSubmitBatch,
		Metrics:     reg,
	}, svc)
	if err != nil {
		return nil, err
	}
	svc.OnResult(gw.OnResult)

	ready := make(chan struct{})
	c, err := Host(cfg.Procs, 1, time.Millisecond,
		func() (*core.Program, error) { return taskfarm.BuildProgram(fp) },
		core.WithMetrics(reg),
		core.WithLifecycle(core.Lifecycle{OnStart: func() { close(ready) }}))
	if err != nil {
		return nil, err
	}
	svc.Bind(c.Nodes[0].Runtime)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	srv := &http.Server{Handler: gw.Handler()}
	b := &gateBench{
		reg: reg, svc: svc, gw: gw, c: c, srv: srv, ln: ln,
		base: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() {
		_, err := c.Run()
		b.done <- err
	}()
	<-ready
	go func() { _ = srv.Serve(ln) }()
	return b, nil
}

func (b *gateBench) shutdown() error {
	b.c.Nodes[0].Runtime.Stop()
	err := <-b.done
	b.c.Close()
	b.gw.Close(nil)
	_ = b.srv.Close()
	return err
}

// client returns an HTTP client whose transport actually holds conns
// connections open, so a 1000-client soak exercises 1000 sockets
// instead of Go's default two-per-host pool.
func gateClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     0,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}
}

// submitWait posts one wait=true job and returns its submit→result
// latency and HTTP status.
func submitWait(cl *http.Client, base, tenant, key string) (time.Duration, int, error) {
	body := fmt.Sprintf(`{"tenant":%q,"wait":true`, tenant)
	if key != "" {
		body += fmt.Sprintf(`,"key":%q`, key)
	}
	body += "}"
	start := time.Now()
	resp, err := cl.Post("http://"+base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode, nil
}

func percentileMS(durs []time.Duration, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return ms(sorted[idx])
}

// runPhase fans jobs out over clients goroutines, each long-polling
// wait=true submissions against tenant. keyFor, when non-nil, names the
// idempotency key per global job index ("" = none).
func (b *gateBench) runPhase(tenant string, jobs, clients int, keyFor func(i int) string) (GatePhase, []time.Duration, error) {
	cl := gateClient(clients)
	defer cl.CloseIdleConnections()
	var (
		next   atomic.Int64
		mu     sync.Mutex
		durs   = make([]time.Duration, 0, jobs)
		wg     sync.WaitGroup
		errMu  sync.Mutex
		outErr error
	)
	pre := b.reg.Snapshot()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs {
					return
				}
				key := ""
				if keyFor != nil {
					key = keyFor(i)
				}
				d, code, err := submitWait(cl, b.base, tenant, key)
				if err != nil || code/100 != 2 {
					errMu.Lock()
					if outErr == nil {
						outErr = fmt.Errorf("job %d: status %d err %v", i, code, err)
					}
					errMu.Unlock()
					return
				}
				mu.Lock()
				durs = append(durs, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if outErr != nil {
		return GatePhase{}, nil, outErr
	}
	delta := b.reg.Snapshot().Sub(pre).Filter(metrics.L("tenant", tenant))
	ph := GatePhase{
		Jobs: jobs, Clients: clients,
		Duplicates: delta.Value("gate_jobs_duplicate_total"),
		JobsPerSec: float64(jobs) / elapsed.Seconds(),
		P50MS:      percentileMS(durs, 0.50),
		P99MS:      percentileMS(durs, 0.99),
	}
	return ph, durs, nil
}

// GateSoak runs the three-phase gateway experiment and renders the
// results as a table plus the report its test reads.
func GateSoak(w io.Writer, p Profile) (*Table, *GateReport, error) {
	cfg := p.Gate
	b, err := buildGateBench(cfg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "gate-soak: gateway on %s (%d PEs, %d shards)\n", b.base, cfg.Procs, gateShards)

	// Phase 1 — solo baseline: paced tenant alone, light concurrency.
	solo, _, err := b.runPhase("solo", cfg.BaselineJobs, cfg.BaselineClients, nil)
	if err != nil {
		b.shutdown()
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}
	fmt.Fprintf(w, "gate-soak: baseline %d jobs: p50 %.2fms p99 %.2fms (%.0f jobs/s)\n",
		solo.Jobs, solo.P50MS, solo.P99MS, solo.JobsPerSec)

	// Phase 2 — soak: SoakJobs submissions over SoakClients connections,
	// gateDupRate of them resubmitting an earlier key. A duplicate long-polls
	// the original job, so it still measures submit→result latency.
	rng := rand.New(rand.NewSource(gateSeed))
	var keyMu sync.Mutex
	keys := make([]string, 0, cfg.SoakJobs)
	keyFor := func(i int) string {
		keyMu.Lock()
		defer keyMu.Unlock()
		if len(keys) > 0 && rng.Float64() < gateDupRate {
			return keys[rng.Intn(len(keys))]
		}
		k := fmt.Sprintf("soak-%d", i)
		keys = append(keys, k)
		return k
	}
	soak, _, err := b.runPhase("solo", cfg.SoakJobs, cfg.SoakClients, keyFor)
	if err != nil {
		b.shutdown()
		return nil, nil, fmt.Errorf("soak: %w", err)
	}
	unique := int64(len(keys))
	fmt.Fprintf(w, "gate-soak: soak %d jobs (%d unique, %d dup hits) over %d conns: p99 %.2fms (%.0f jobs/s)\n",
		soak.Jobs, unique, soak.Duplicates, soak.Clients, soak.P99MS, soak.JobsPerSec)

	// Phase 3 — backpressure: flood clients blast the capped flood
	// tenant (no wait, no pacing) while the paced tenant's jobs arrive
	// on a fixed cadence. The flood must be throttled at the edge; the
	// paced tenant must keep its solo-grade latency.
	stopFlood := make(chan struct{})
	var floodSent, flood429 atomic.Int64
	var floodWG sync.WaitGroup
	floodCl := gateClient(cfg.FloodClients)
	for c := 0; c < cfg.FloodClients; c++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				resp, err := floodCl.Post("http://"+b.base+"/v1/jobs", "application/json",
					strings.NewReader(`{"tenant":"flood"}`))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				floodSent.Add(1)
				if resp.StatusCode == http.StatusTooManyRequests {
					flood429.Add(1)
				}
			}
		}()
	}
	pacedDurs := make([]time.Duration, 0, cfg.PacedJobs)
	pacedCl := gateClient(4)
	tick := time.NewTicker(cfg.PacedEvery)
	var pacedErr error
	for i := 0; i < cfg.PacedJobs; i++ {
		<-tick.C
		d, code, err := submitWait(pacedCl, b.base, "paced", "")
		if err != nil || code/100 != 2 {
			pacedErr = fmt.Errorf("paced job %d: status %d err %v", i, code, err)
			break
		}
		pacedDurs = append(pacedDurs, d)
	}
	tick.Stop()
	close(stopFlood)
	floodWG.Wait()
	floodCl.CloseIdleConnections()
	pacedCl.CloseIdleConnections()
	if pacedErr != nil {
		b.shutdown()
		return nil, nil, pacedErr
	}

	// Drain: every admitted flood job still completes.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		snap := b.reg.Snapshot()
		if snap.Value("gate_queue_depth") == 0 && snap.Value("gate_inflight_tasks") == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	pacedP99 := percentileMS(pacedDurs, 0.99)
	bp := GateBackpressure{
		PacedJobs:  len(pacedDurs),
		PacedP99MS: pacedP99,
		P99Ratio:   pacedP99 / solo.P99MS,
		FloodSent:  floodSent.Load(),
		Flood429s:  flood429.Load(),
	}
	if bp.FloodSent > 0 {
		bp.RejectedPct = 100 * float64(bp.Flood429s) / float64(bp.FloodSent)
	}
	fmt.Fprintf(w, "gate-soak: backpressure: flood %d sent / %d rejected (%.1f%%), paced p99 %.2fms (%.2fx solo)\n",
		bp.FloodSent, bp.Flood429s, bp.RejectedPct, bp.PacedP99MS, bp.P99Ratio)

	if err := b.shutdown(); err != nil {
		return nil, nil, err
	}

	completed := b.svc.Completed()
	totalUnique := b.svc.Submitted() // every allocated seq is one distinct farm task
	rep := &GateReport{
		Baseline:     solo,
		Soak:         soak,
		Backpressure: bp,
		Completed:    completed,
		Unique:       totalUnique,
		DoubleExecs:  b.svc.DoubleExecs(),
	}
	rep.Checks = GateChecks{
		ExactlyOnce:      completed == totalUnique,
		ZeroDoubleExecs:  rep.DoubleExecs == 0,
		SoakP99Within:    cfg.SoakP99Bound <= 0 || soak.P99MS <= ms(cfg.SoakP99Bound),
		FloodThrottled:   bp.Flood429s > 0,
		PacedWithinBound: bp.P99Ratio <= 2.0,
	}

	t := &Table{
		Title: fmt.Sprintf("Gate soak: %d-job soak over %d connections, %.0f%% duplicate keys",
			cfg.SoakJobs, cfg.SoakClients, 100*gateDupRate),
		Header: []string{"Phase", "Jobs", "Clients", "p50 (ms)", "p99 (ms)", "Jobs/s", "Notes"},
	}
	t.Rows = append(t.Rows,
		[]string{"baseline", fmt.Sprintf("%d", solo.Jobs), fmt.Sprintf("%d", solo.Clients),
			fmt.Sprintf("%.2f", solo.P50MS), fmt.Sprintf("%.2f", solo.P99MS),
			fmt.Sprintf("%.0f", solo.JobsPerSec), "solo tenant"},
		[]string{"soak", fmt.Sprintf("%d", soak.Jobs), fmt.Sprintf("%d", soak.Clients),
			fmt.Sprintf("%.2f", soak.P50MS), fmt.Sprintf("%.2f", soak.P99MS),
			fmt.Sprintf("%.0f", soak.JobsPerSec),
			fmt.Sprintf("%d dup hits, %d double-execs", soak.Duplicates, rep.DoubleExecs)},
		[]string{"backpressure", fmt.Sprintf("%d", bp.PacedJobs), fmt.Sprintf("%d", 1+cfg.FloodClients),
			"-", fmt.Sprintf("%.2f", bp.PacedP99MS), "-",
			fmt.Sprintf("flood %.1f%% rejected, paced %.2fx solo", bp.RejectedPct, bp.P99Ratio)},
	)
	status := "PASS"
	if !rep.Checks.ok() {
		status = "FAIL"
	}
	t.Rows = append(t.Rows, []string{"checks", "-", "-", "-", "-", "-",
		fmt.Sprintf("%s (exactly-once %v, zero-doubles %v, soak-p99 %v, flood-throttled %v, paced-bounded %v)",
			status, rep.Checks.ExactlyOnce, rep.Checks.ZeroDoubleExecs, rep.Checks.SoakP99Within,
			rep.Checks.FloodThrottled, rep.Checks.PacedWithinBound)})
	if !rep.Checks.ok() {
		return t, rep, fmt.Errorf("gate-soak acceptance checks failed: %+v", rep.Checks)
	}
	return t, rep, nil
}
