// Package gate is the grid's front door: an HTTP/JSON ingress that
// accepts job submissions from external clients and routes them onto a
// live serve-mode taskfarm (internal/taskfarm/serve.go), streaming
// results back. It is the GridCompute submit/scan/retrieve model
// (SNIPPETS.md §3) recast onto message-driven objects — the farm masks
// the wide-area latency, the gate masks the farm from the clients.
//
// The gate's own contribution is edge discipline, the part MPICH-G2
// showed a grid runtime lives or dies by:
//
//   - Admission control: every job belongs to a configured tenant with
//     a bounded queue. A full queue answers 429 + Retry-After at the
//     socket instead of buffering without bound.
//   - Weighted fair queueing: a deficit-round-robin scheduler drains
//     tenant queues in weight proportion, so a flooding tenant cannot
//     starve a paced one.
//   - Idempotent resubmit: jobs may carry an idempotency key; a
//     duplicate submission returns the original job instead of running
//     twice, through a TTL'd dedup table that mirrors the reliability
//     layer's recvNext tombstones one level up the stack.
package gate

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gridmdo/internal/metrics"
)

// Submitter injects tasks into the live farm. *taskfarm.Service
// satisfies it structurally; the gate deliberately does not import the
// farm, so tests can drive the gateway against a synthetic executor.
type Submitter interface {
	Submit(n int) (lo int64, err error)
}

// TracedSubmitter is a Submitter that can stamp the injection message
// with a causal trace parent and report the message's ID.
// *taskfarm.Service satisfies it; when the gateway has an Observer and
// its Submitter implements this, every batch rides a traced injection so
// job span trees extend into the farm.
type TracedSubmitter interface {
	Submitter
	SubmitTraced(n int, parent uint64) (lo int64, msgID uint64, err error)
}

// Observer receives job lifecycle notifications — the hook the telemetry
// collector implements (structurally, like Submitter) to stitch HTTP-side
// job roots onto the runtime's span stream and feed SLO tracking. All
// methods are called under the gateway's mutex and must be cheap and
// non-blocking.
type Observer interface {
	// JobAdmitted allocates a trace root for a newly admitted job.
	JobAdmitted(jobID, tenant string) (root uint64)
	// JobInjected links the farm injection message under the job's root.
	JobInjected(root, msgID uint64)
	// JobDone closes the job's root span and records its SLO outcome.
	JobDone(jobID string, root uint64, tenant string, latency time.Duration, failed bool)
}

// JobState is a job's position in its lifecycle.
type JobState uint8

const (
	StateQueued  JobState = iota // admitted, waiting in the tenant queue
	StateRunning                 // injected into the farm
	StateDone                    // result available
	StateFailed                  // gateway or runtime failure
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Job is one unit of external work: a single farm task plus the edge
// bookkeeping. All mutable fields are guarded by the owning Gateway's
// mutex; Done is closed exactly once when the job reaches a terminal
// state.
type Job struct {
	ID     string
	Tenant string
	Key    string // idempotency key; "" if none

	State   JobState
	Seq     int64  // farm task sequence number, valid from StateRunning
	Root    uint64 // trace root span ID, 0 when no Observer is configured
	Value   float64
	Err     string
	Created time.Time
	Ended   time.Time

	Done chan struct{}
}

// TenantConfig declares one admitted tenant.
type TenantConfig struct {
	Name string
	// Weight is the tenant's DRR share; 0 means 1.
	Weight int
	// MaxQueue bounds the tenant's admission queue; a submission that
	// finds it full is rejected with ErrOverQuota. 0 means 1024.
	MaxQueue int
}

// Config assembles a Gateway.
type Config struct {
	Tenants []TenantConfig

	// MaxInflight bounds tasks submitted to the farm and not yet
	// completed — the backpressure boundary between the edge queues and
	// the farm's internal pipeline. 0 means 4096.
	MaxInflight int

	// SubmitBatch caps how many queued jobs one farm submission carries
	// (they get contiguous sequence numbers, amortizing the injection
	// message). 0 means 64.
	SubmitBatch int

	// Metrics, when non-nil, receives the gate's per-tenant series.
	Metrics *metrics.Registry

	// Observer, when non-nil, receives job lifecycle hooks (admission,
	// farm injection, completion) for end-to-end tracing and SLO
	// accounting. The telemetry collector satisfies it.
	Observer Observer
}

func (c *Config) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 4096
	}
	return c.MaxInflight
}

func (c *Config) submitBatch() int {
	if c.SubmitBatch <= 0 {
		return 64
	}
	return c.SubmitBatch
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrUnknownTenant = errors.New("gate: unknown tenant")
	ErrOverQuota     = errors.New("gate: tenant queue full")
	ErrClosed        = errors.New("gate: gateway closed")
)

// tenantMetrics are one tenant's labeled handles — registered once at
// construction (labels render at registration; updates are atomics).
type tenantMetrics struct {
	submitted *metrics.Counter
	completed *metrics.Counter
	rejected  *metrics.Counter
	dups      *metrics.Counter
	depth     *metrics.Gauge
	latency   *metrics.Histogram
}

func newTenantMetrics(reg *metrics.Registry, tenant string) *tenantMetrics {
	l := metrics.L("tenant", tenant)
	return &tenantMetrics{
		submitted: reg.Counter("gate_jobs_submitted_total", l),
		completed: reg.Counter("gate_jobs_completed_total", l),
		rejected:  reg.Counter("gate_jobs_rejected_total", l),
		dups:      reg.Counter("gate_jobs_duplicate_total", l),
		depth:     reg.Gauge("gate_queue_depth", l),
		latency:   reg.Histogram("gate_submit_result_latency_ns", metrics.DurationBuckets, l),
	}
}

// Gateway is the admission/dispatch core behind the HTTP surface.
type Gateway struct {
	cfg Config
	sub Submitter
	src JobSource

	mu      sync.Mutex
	tenants map[string]*tenantState
	jobs    map[string]*Job
	bySeq   map[int64]*Job
	idem    *idemTable
	nextID  int64
	running int // tasks in the farm, not yet completed
	closed  bool
	closErr string

	kick chan struct{} // wakes the pump
	stop chan struct{}
	wg   sync.WaitGroup

	inflight  *metrics.Gauge
	strayDone *metrics.Counter
}

type tenantState struct {
	cfg TenantConfig
	q   *tenantQueue
	met *tenantMetrics
}

// New builds a Gateway over the given Submitter and starts its ingest
// pump. Call Close when the runtime below it stops.
func New(cfg Config, sub Submitter) (*Gateway, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("gate: at least one tenant required")
	}
	if sub == nil {
		return nil, errors.New("gate: submitter required")
	}
	g := &Gateway{
		cfg:       cfg,
		sub:       sub,
		tenants:   make(map[string]*tenantState, len(cfg.Tenants)),
		jobs:      make(map[string]*Job),
		bySeq:     make(map[int64]*Job),
		idem:      newIdemTable(),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		inflight:  cfg.Metrics.Gauge("gate_inflight_tasks"),
		strayDone: cfg.Metrics.Counter("gate_stray_results_total"),
	}
	wfq := newWFQ()
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, errors.New("gate: tenant with empty name")
		}
		if _, dup := g.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("gate: duplicate tenant %q", tc.Name)
		}
		q := wfq.addTenant(tc)
		g.tenants[tc.Name] = &tenantState{
			cfg: tc,
			q:   q,
			met: newTenantMetrics(cfg.Metrics, tc.Name),
		}
	}
	g.src = wfq
	g.wg.Add(1)
	go g.pump()
	return g, nil
}

// Submit admits one job for tenant. A non-empty key makes the
// submission idempotent: a repeat within the TTL returns the original
// job and duplicate == true. Errors: ErrUnknownTenant, ErrOverQuota,
// ErrClosed.
func (g *Gateway) Submit(tenant, key string) (job *Job, duplicate bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false, ErrClosed
	}
	ts, ok := g.tenants[tenant]
	if !ok {
		return nil, false, ErrUnknownTenant
	}
	now := time.Now()
	if key != "" {
		if id, ok := g.idem.lookup(tenant, key, now); ok {
			if j := g.jobs[id]; j != nil {
				ts.met.dups.Inc()
				return j, true, nil
			}
		}
	}
	if ts.q.len() >= ts.maxQueue() {
		ts.met.rejected.Inc()
		return nil, false, ErrOverQuota
	}
	g.nextID++
	j := &Job{
		ID:      fmt.Sprintf("j-%d", g.nextID),
		Tenant:  tenant,
		Key:     key,
		State:   StateQueued,
		Created: now,
		Done:    make(chan struct{}),
	}
	g.jobs[j.ID] = j
	if obs := g.cfg.Observer; obs != nil {
		j.Root = obs.JobAdmitted(j.ID, tenant)
	}
	if key != "" {
		g.idem.insert(tenant, key, j.ID, now)
	}
	ts.q.push(j)
	ts.met.submitted.Inc()
	ts.met.depth.Set(int64(ts.q.len()))
	g.kickPump()
	return j, false, nil
}

func (ts *tenantState) maxQueue() int {
	if ts.cfg.MaxQueue <= 0 {
		return 1024
	}
	return ts.cfg.MaxQueue
}

// Lookup returns a job by ID.
func (g *Gateway) Lookup(id string) (*Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	return j, ok
}

// Status returns a consistent copy of the job's mutable state.
func (g *Gateway) Status(j *Job) (state JobState, value float64, errMsg string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return j.State, j.Value, j.Err
}

// OnResult is the farm-completion hook; wire it to
// taskfarm.Service.OnResult. It runs on the root chare's PE goroutine,
// so it only flips maps and closes a channel.
func (g *Gateway) OnResult(seq int64, value float64) {
	g.mu.Lock()
	j, ok := g.bySeq[seq]
	if !ok {
		g.mu.Unlock()
		g.strayDone.Inc()
		return
	}
	delete(g.bySeq, seq)
	g.running--
	g.inflight.Set(int64(g.running))
	j.State = StateDone
	j.Value = value
	j.Ended = time.Now()
	ts := g.tenants[j.Tenant]
	ts.met.completed.Inc()
	ts.met.latency.Observe(j.Ended.Sub(j.Created).Nanoseconds())
	close(j.Done)
	if obs := g.cfg.Observer; obs != nil && j.Root != 0 {
		obs.JobDone(j.ID, j.Root, j.Tenant, j.Ended.Sub(j.Created), false)
	}
	g.mu.Unlock()
	g.kickPump()
}

// Close fails every non-terminal job and stops the pump. Safe to call
// more than once; wire it to the runtime's Lifecycle.OnExit.
func (g *Gateway) Close(cause error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.closErr = "gateway shut down"
	if cause != nil {
		g.closErr = cause.Error()
	}
	obs := g.cfg.Observer
	for _, j := range g.jobs {
		if j.State == StateQueued || j.State == StateRunning {
			j.State = StateFailed
			j.Err = g.closErr
			j.Ended = time.Now()
			close(j.Done)
			if obs != nil && j.Root != 0 {
				obs.JobDone(j.ID, j.Root, j.Tenant, j.Ended.Sub(j.Created), true)
			}
		}
	}
	for _, ts := range g.tenants {
		ts.q.drain()
		ts.met.depth.Set(0)
	}
	g.bySeq = map[int64]*Job{}
	g.running = 0
	g.inflight.Set(0)
	close(g.stop)
	g.mu.Unlock()
	g.wg.Wait()
}

func (g *Gateway) kickPump() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// pump is the single ingest loop: it drains the fair-queue source in
// DRR order, coalesces up to SubmitBatch jobs into one contiguous
// sequence-number allocation, and maps each job to its farm task. One
// goroutine, so the farm sees submissions in fair order and the
// MaxInflight bound is exact.
func (g *Gateway) pump() {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		case <-g.kick:
		}
		for g.pumpOnce() {
		}
	}
}

// pumpOnce moves at most one batch from the queues into the farm,
// reporting whether it did any work.
func (g *Gateway) pumpOnce() bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	budget := g.cfg.maxInflight() - g.running
	if budget <= 0 {
		g.mu.Unlock()
		return false
	}
	if b := g.cfg.submitBatch(); budget > b {
		budget = b
	}
	jobs := g.src.Pop(budget)
	if len(jobs) == 0 {
		g.mu.Unlock()
		return false
	}
	for _, ts := range g.tenants {
		ts.met.depth.Set(int64(ts.q.len()))
	}
	// The farm's completion hook takes g.mu, so holding it across
	// Submit orders the seq→job mapping before any result can look it
	// up. Submit itself only posts a message — it never blocks on the
	// farm's progress.
	var lo int64
	var err error
	var msgID uint64
	obs := g.cfg.Observer
	if ts, ok := g.sub.(TracedSubmitter); ok && obs != nil {
		// The whole batch rides one injection message; parent it under
		// the first job's root and then adopt it into every batched
		// job's tree, so each job's trace reaches the farm.
		lo, msgID, err = ts.SubmitTraced(len(jobs), jobs[0].Root)
	} else {
		lo, err = g.sub.Submit(len(jobs))
	}
	if err != nil {
		now := time.Now()
		for _, j := range jobs {
			j.State = StateFailed
			j.Err = err.Error()
			j.Ended = now
			close(j.Done)
			if obs != nil && j.Root != 0 {
				obs.JobDone(j.ID, j.Root, j.Tenant, now.Sub(j.Created), true)
			}
		}
		g.mu.Unlock()
		return true
	}
	for i, j := range jobs {
		j.State = StateRunning
		j.Seq = lo + int64(i)
		g.bySeq[j.Seq] = j
		if obs != nil && j.Root != 0 && msgID != 0 {
			obs.JobInjected(j.Root, msgID)
		}
	}
	g.running += len(jobs)
	g.inflight.Set(int64(g.running))
	g.mu.Unlock()
	return true
}
