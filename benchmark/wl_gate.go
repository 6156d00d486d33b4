package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
)

// gate_jobs: the job path HTTP → tenant queue → pump → shard grant → worker
// → result, all in this process: gate.New over a serve-mode farm on one
// 4-PE runtime, behind a real net/http listener on loopback.
//
// Phase A is a closed loop: 2 clients, one per tenant, each POST wait=true
// and send the next job only when the previous one has answered, so a
// slower gateway is offered less load and the numbers are unloaded latency.
// Phase B is 2 connections sending no-wait POSTs back to back; it ends when
// the farm has completed every job, and is bound by ingress cost.

type gateSizes struct {
	waitJobs   int // phase A jobs per client
	noWaitJobs int // phase B jobs per connection
	spin       int
}

const gateClients = 2

var gateTenants = [gateClients]string{"red", "blue"}

type gateRunner struct {
	sz gateSizes
	// reuse[c][i] >= 0 makes client c's i-th phase A job reuse the
	// idempotency key of its job reuse[c][i], chosen by the seed.
	reuse [gateClients][]int
	dups  int
}

func newGateRunner(cfg runConfig) (runner, error) {
	g := &gateRunner{sz: gateSizes{waitJobs: 1000, noWaitJobs: 4000, spin: 20_000}}
	if cfg.toy {
		g.sz = gateSizes{waitJobs: 40, noWaitJobs: 100, spin: 50}
	}
	for c := range g.reuse {
		rng := cfg.rng(int64(10 + c))
		g.reuse[c] = make([]int, g.sz.waitJobs)
		for i := range g.reuse[c] {
			g.reuse[c][i] = -1
			// One job in ten repeats the key of an earlier first-time job.
			if i > 0 && rng.Intn(10) == 0 {
				if j := rng.Intn(i); g.reuse[c][j] < 0 {
					g.reuse[c][i] = j
					g.dups++
				}
			}
		}
	}
	return g, nil
}

func (g *gateRunner) plannedOps() int64 {
	return int64(gateClients * (g.sz.waitJobs + g.sz.noWaitJobs))
}

// jobTimes is the benchmark's gate.Observer: it stamps each job's
// admission, injection and completion. The gateway calls it under its own
// mutex, so it needs none.
type jobTimes struct {
	byID   map[string]*jobSpan
	byRoot []*jobSpan
}

type jobSpan struct {
	admitted, injected, done time.Time
}

func (t *jobTimes) JobAdmitted(jobID, _ string) uint64 {
	s := &jobSpan{admitted: time.Now()}
	t.byID[jobID] = s
	t.byRoot = append(t.byRoot, s)
	return uint64(len(t.byRoot))
}

func (t *jobTimes) JobInjected(root, _ uint64) { t.byRoot[root-1].injected = time.Now() }

func (t *jobTimes) JobDone(_ string, root uint64, _ string, _ time.Duration, _ bool) {
	t.byRoot[root-1].done = time.Now()
}

// timedSubmitter wraps the farm's Service to time each injection call.
type timedSubmitter struct {
	svc    *taskfarm.Service
	callUS []float64 // appended under the gateway's mutex, which the pump holds across Submit
}

func (t *timedSubmitter) Submit(n int) (int64, error) {
	from := time.Now()
	lo, err := t.svc.Submit(n)
	t.callUS = append(t.callUS, us(time.Since(from)))
	return lo, err
}

func (t *timedSubmitter) SubmitTraced(n int, parent uint64) (int64, uint64, error) {
	from := time.Now()
	lo, id, err := t.svc.SubmitTraced(n, parent)
	t.callUS = append(t.callUS, us(time.Since(from)))
	return lo, id, err
}

// gateStack is the assembled gateway, farm, runtime and listener.
type gateStack struct {
	svc  *taskfarm.Service
	gw   *gate.Gateway
	rt   *core.Runtime
	srv  *http.Server
	url  string
	done chan error
}

func (g *gateRunner) build(o *observe, jobs *jobTimes, sub *timedSubmitter) (*gateStack, error) {
	fp := &taskfarm.Params{
		Serve: true, Workers: 4, Shards: 2, Batch: 4, Prefetch: 2,
		Spin: g.sz.spin, Metrics: o.registry(),
	}
	svc, err := taskfarm.NewService(fp)
	if err != nil {
		return nil, err
	}
	prog, err := taskfarm.BuildProgram(fp)
	if err != nil {
		return nil, err
	}
	topo, err := topology.New([]int{2, 2}, topology.WithInterLatency(0))
	if err != nil {
		return nil, err
	}
	cfg := gate.Config{
		Tenants: []gate.TenantConfig{
			{Name: gateTenants[0], Weight: 1, MaxQueue: 1 << 16},
			{Name: gateTenants[1], Weight: 1, MaxQueue: 1 << 16},
		},
		MaxInflight: 64, SubmitBatch: 16, Metrics: o.registry(),
	}
	var submitter gate.Submitter = svc
	if o != nil {
		cfg.Observer = jobs
		sub.svc = svc
		submitter = sub
	}
	gw, err := gate.New(cfg, submitter)
	if err != nil {
		return nil, err
	}
	svc.OnResult(gw.OnResult)

	ready := make(chan struct{})
	opts := append([]core.Option{core.WithLifecycle(core.Lifecycle{OnStart: func() { close(ready) }})}, o.coreOpts()...)
	rt, err := core.NewRuntime(topo, prog, opts...)
	if err != nil {
		gw.Close(err)
		return nil, err
	}
	svc.Bind(rt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close(err)
		return nil, err
	}
	s := &gateStack{svc: svc, gw: gw, rt: rt, srv: &http.Server{Handler: gw.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/jobs", done: make(chan error, 1)}
	go func() {
		_, err := rt.Run()
		s.done <- err
	}()
	<-ready
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func (s *gateStack) shutdown() error {
	s.rt.Stop()
	err := <-s.done
	s.gw.Close(nil)
	_ = s.srv.Close()
	return err
}

type jobReply struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Duplicate bool   `json:"duplicate"`
}

// post submits one job and returns the reply and the client-side interval.
func post(cl *http.Client, url, body string) (jobReply, interval, int, error) {
	var jr jobReply
	from := time.Now()
	resp, err := cl.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return jr, interval{}, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	to := time.Now()
	iv := interval{from: sinceStart(from), to: sinceStart(to)}
	if err != nil {
		return jr, iv, resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(data, &jr)
	}
	return jr, iv, resp.StatusCode, err
}

// clientResult is what one load-generating goroutine saw.
type clientResult struct {
	ids      []string
	spans    []interval
	failed   int64
	rejected int64
	dups     int64
}

func (g *gateRunner) run(traced bool) (rep, error) {
	var r rep
	var o *observe
	jobs := &jobTimes{byID: map[string]*jobSpan{}}
	sub := &timedSubmitter{}
	if traced {
		o = newObserve(4, 16*int(g.plannedOps()))
	}
	setupFrom := time.Now()
	s, err := g.build(o, jobs, sub)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(setupFrom)
	cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: gateClients}, Timeout: 60 * time.Second}
	defer cl.CloseIdleConnections()

	// Phase A: closed loop, one client per tenant.
	waits := g.drive(func(c, i int) (string, bool) {
		key := fmt.Sprintf("c%d-%d", c, i)
		if j := g.reuse[c][i]; j >= 0 {
			key = fmt.Sprintf("c%d-%d", c, j)
		}
		return fmt.Sprintf(`{"tenant":%q,"key":%q,"wait":true}`, gateTenants[c], key), true
	}, g.sz.waitJobs, cl, s.url)

	// Phase B: no-wait POSTs; done when the farm has completed them all.
	unique := int64(gateClients*g.sz.waitJobs - g.dups)
	total := unique + int64(gateClients*g.sz.noWaitJobs)
	var noWait [gateClients]string // built outside the timed phase
	for c := range noWait {
		noWait[c] = fmt.Sprintf(`{"tenant":%q}`, gateTenants[c])
	}
	cpu0, from := cpuTime(), time.Now()
	admits := g.drive(func(c, _ int) (string, bool) { return noWait[c], false }, g.sz.noWaitJobs, cl, s.url)
	for deadline := time.Now().Add(30 * time.Second); s.svc.Completed() < total && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	r.wall, r.cpu = time.Since(from), cpuTime()-cpu0
	completed, doubles := s.svc.Completed(), s.svc.DoubleExecs()
	if err := s.shutdown(); err != nil {
		return r, err
	}

	r.attempted = g.plannedOps()
	var lat, admitUS []float64
	var dups, rejected int64
	for c := range waits {
		r.failed += waits[c].failed + admits[c].failed
		dups += waits[c].dups
		rejected += waits[c].rejected + admits[c].rejected
		for _, iv := range waits[c].spans {
			lat = append(lat, us(iv.to-iv.from))
		}
		for _, iv := range admits[c].spans {
			admitUS = append(admitUS, us(iv.to-iv.from))
		}
	}
	switch {
	case completed != total:
		return r, oracleErr("jobs completed", completed, total)
	case doubles != 0:
		return r, oracleErr("double executions", doubles, 0)
	case dups != int64(g.dups):
		return r, oracleErr("duplicate replies", dups, g.dups)
	}
	r.ops = int64(gateClients * g.sz.noWaitJobs)
	r.opTimeUS = median(lat)
	r.set("gate.job_p99_us", percentile(lat, 0.99))
	r.set("gate.admit_us_p50", median(admitUS))
	r.set("gate.duplicates", float64(dups))
	r.set("gate.rejected", float64(rejected))
	if o != nil {
		coreLayers(&r, o, oneNode(4))
		farmLayers(&r, o, int(total))
		g.jobLayers(&r, waits[:], jobs, sub)
	}
	return r, nil
}

// drive runs one goroutine per client, each sending n jobs one after
// another. wantDone makes a reply count as failed unless its job is done.
func (g *gateRunner) drive(body func(c, i int) (string, bool), n int, cl *http.Client, url string) [gateClients]clientResult {
	var out [gateClients]clientResult
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &out[c]
			res.ids = make([]string, 0, n)
			res.spans = make([]interval, 0, n)
			for i := 0; i < n; i++ {
				b, wantDone := body(c, i)
				jr, iv, code, err := post(cl, url, b)
				switch {
				case code == http.StatusTooManyRequests:
					res.rejected++
					res.failed++
				case err != nil || code/100 != 2 || (wantDone && jr.State != "done"):
					res.failed++
				default:
					if jr.Duplicate {
						res.dups++
					}
					res.ids = append(res.ids, jr.ID)
					res.spans = append(res.spans, iv)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// jobLayers splits the phase A job latency into the gateway's stages. The
// client's span contains the job's admitted → done span, which in turn is
// the queue wait followed by the time in the farm.
func (g *gateRunner) jobLayers(r *rep, waits []clientResult, jobs *jobTimes, sub *timedSubmitter) {
	var httpSelf, queueWait, farm []float64
	for _, w := range waits {
		for i, id := range w.ids {
			s := jobs.byID[id]
			// A duplicate reply names a job that finished before this
			// request was sent; it has no stages inside this span.
			if s == nil || s.injected.IsZero() || s.done.IsZero() || sinceStart(s.admitted) < w.spans[i].from {
				continue
			}
			inGate := interval{from: sinceStart(s.admitted), to: sinceStart(s.done)}
			httpSelf = append(httpSelf, us(selfTime(w.spans[i], []interval{inGate})))
			queueWait = append(queueWait, us(s.injected.Sub(s.admitted)))
			farm = append(farm, us(s.done.Sub(s.injected)))
		}
	}
	r.set("gate.http_self_us_p50", median(httpSelf))
	r.set("gate.queue_wait_us_p50", median(queueWait))
	r.set("gate.farm_us_p50", median(farm))
	r.set("taskfarm.submit_us_p50", median(sub.callUS))
	path := median(httpSelf) + median(queueWait) + median(farm)
	r.set("budget.residual_frac", 1-path/r.opTimeUS)
}
