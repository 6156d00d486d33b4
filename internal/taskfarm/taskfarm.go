// Package taskfarm implements a master/worker ("master-slave") farm, the
// application class the paper's introduction names as naturally
// Grid-tolerant: "master-slave style applications are also good
// candidates for Grid environments because they typically have small
// communication requirements and because communication delays are often
// not on the critical path."
//
// The farm self-schedules: the master seeds each worker with Prefetch
// outstanding tasks and sends a new one as each result returns, so a
// worker with Prefetch >= 2 always has a task in hand while the next one
// is in flight — the class's own latency-masking mechanism, complementing
// the object-level overlap the tightly-coupled applications rely on.
package taskfarm

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
)

// Arrays. The sharded farm (shard.go) adds ArrayShard; the single-master
// program uses only the first two.
const (
	ArrayMaster core.ArrayID = 0
	ArrayWorker core.ArrayID = 1
	ArrayShard  core.ArrayID = 2
)

// Entry methods.
const (
	entryStart       core.EntryID = 0  // master/root: begin farming
	entryTask        core.EntryID = 1  // worker: one task
	entryResult      core.EntryID = 2  // master: a worker's result
	entryTaskBatch   core.EntryID = 3  // worker: a batch of tasks from a shard
	entryResultBatch core.EntryID = 4  // shard: a worker's batched results
	entryStealReq    core.EntryID = 5  // shard: another shard asks for work
	entryStealRsp    core.EntryID = 6  // shard: a victim's reply (possibly empty)
	entryProgress    core.EntryID = 7  // root: completion delta from a shard
	entryShardStart  core.EntryID = 8  // shard: begin dispatching
	entryReportReq   core.EntryID = 9  // shard: root asks for the final tally
	entryReport      core.EntryID = 10 // root: a shard's final tally
	entryMembers     core.EntryID = 11 // shard: worker-set change (elastic farms)
	entryMembersRoot core.EntryID = 12 // root: drain expectation (elastic farms)
	entryDrainClear  core.EntryID = 13 // root: a draining worker's grants all settled
	entrySubmit      core.EntryID = 14 // shard: externally submitted tasks (serve farms)
)

// Params configures a farm run.
type Params struct {
	// Tasks is the number of independent work units.
	Tasks int
	// Workers is the worker count; 0 means one per PE.
	Workers int
	// Prefetch is the number of tasks kept in flight per worker (>= 1).
	Prefetch int
	// TaskCost is the modeled compute per task on the reference machine.
	TaskCost time.Duration
	// TaskBytes is the modeled payload size of task and result messages.
	TaskBytes int
	// Spin, if positive, makes workers do that many iterations of real
	// arithmetic per task (for wall-clock runs).
	Spin int

	// DedicatedMaster keeps workers off the master's PE (PE 0), so a
	// worker's compute never delays task resupply. Requires at least two
	// PEs when used with BuildProgramFor.
	DedicatedMaster bool

	// AssignCost is the modeled dispatcher CPU per task assignment — the
	// WRONJ "AT". The master (or shard) charges it for every task it
	// grants, so a single dispatcher's throughput caps at 1/AssignCost
	// and the knee at Workers ~= TaskCost/AssignCost is reproducible in
	// virtual time.
	AssignCost time.Duration

	// Shards > 1 replaces the single master with a chare array of
	// dispatcher shards (shard.go), each owning a contiguous slice of the
	// task space and of the worker array. 0 or 1 keeps the single master.
	Shards int

	// Batch is the number of tasks per grant message in the sharded farm
	// (results return batched the same way). 0 means 1: one task per
	// message, the single-master wire behavior.
	Batch int

	// Steal lets a drained shard take pending tasks from a randomly
	// chosen victim shard. Only meaningful with Shards > 1.
	Steal bool

	// StealTries bounds consecutive failed steal attempts per drain
	// episode (0 means a default of 4). The counter resets whenever the
	// shard acquires tasks.
	StealTries int

	// Seed seeds the per-shard victim-selection PRNG, keeping randomized
	// stealing deterministic under the virtual-time engine.
	Seed uint64

	// CostSkew, when > 1, ramps the modeled per-task cost (and Spin
	// iterations) linearly from 1x at task 0 to CostSkew-x at the last
	// task. Task *values* are unchanged, so skewed and uniform runs
	// produce identical checksums; the skew exists to drain low-index
	// shards early and exercise stealing.
	CostSkew float64

	// Metrics, when non-nil, publishes farm series into this registry:
	// the worker-observed assignment-wait histogram (the WRONJ "rest"
	// time), grant/steal counters, and a per-shard completed-task
	// counter. Works under both executors — handles are plain atomics.
	Metrics *metrics.Registry

	// Elastic, when non-nil, prepares the farm for a changing node set
	// (see elastic.go): dispatchers are pinned to the membership
	// coordinator, workers are placed on initially-Active nodes only,
	// and the farm reacts to join/drain/death notifications delivered
	// by a Notifier. Requires Shards >= 1 (the sharded protocol carries
	// the outstanding-grant tracking the recovery path needs).
	Elastic *ElasticConfig

	// OnDrained is called from the root's handler when every
	// outstanding grant to a draining node's workers has settled — wire
	// it to core.Membership.NotifyDrained. Elastic farms only.
	OnDrained func(node int)

	// Serve turns the farm into an open-ended service: it starts with an
	// empty task space (Tasks must be 0) and executes ranges injected into
	// live shards by a Service (see serve.go). The root never exits on its
	// own — the embedding process owns the runtime's lifetime. Requires
	// Shards >= 1: external submission rides the sharded wire protocol.
	Serve bool

	// OnTaskDone is called from the root's handler for every completed
	// task in a serve farm, with the task's sequence number and computed
	// value. Called on the root's PE goroutine; keep it cheap and
	// non-blocking. Serve farms only.
	OnTaskDone func(seq int64, value float64)
}

// Validate checks parameter consistency. It is the single authority on
// what a well-formed Params looks like — BuildProgram, BuildProgramFor,
// and NewService all call it — and it reports every violation at once
// via errors.Join, not just the first.
//
// Workers == 0 means "one per PE" and is resolved by BuildProgramFor;
// Validate accepts it, and checks that depend on the worker count apply
// only once Workers is concrete.
func (p *Params) Validate() error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("taskfarm: "+format, args...))
	}
	if p.Serve {
		if p.Tasks != 0 {
			add("serve farm starts empty: Tasks must be 0 (have %d)", p.Tasks)
		}
		if p.Shards < 1 {
			add("serve farm requires Shards >= 1 (have %d): submission rides the sharded protocol", p.Shards)
		}
	} else if p.Tasks <= 0 {
		add("%d tasks", p.Tasks)
	}
	if p.Prefetch <= 0 {
		add("prefetch %d (must be >= 1)", p.Prefetch)
	}
	if p.TaskCost < 0 {
		add("negative task cost")
	}
	if p.AssignCost < 0 {
		add("negative assign cost")
	}
	if p.Shards < 0 {
		add("%d shards", p.Shards)
	}
	if p.Workers < 0 {
		add("%d workers", p.Workers)
	}
	if p.Batch < 0 {
		add("negative batch size")
	}
	// The sharded protocol grants in batches; Batch <= 0 used to be
	// silently coerced to 1, hiding misconfiguration behind a 16x-slower
	// wire. With sharding enabled it is now an explicit error.
	if p.sharded() && p.Batch <= 0 {
		add("sharded farm requires Batch >= 1 (have %d)", p.Batch)
	}
	if p.Workers > 0 && p.sharded() && p.Workers < p.Shards {
		add("%d shards need at least that many workers (have %d)", p.Shards, p.Workers)
	}
	if p.CostSkew != 0 && p.CostSkew < 1 {
		add("cost skew %v < 1", p.CostSkew)
	}
	if p.Elastic != nil {
		if p.Shards < 1 {
			add("elastic farm requires Shards >= 1 (have %d)", p.Shards)
		}
		if p.Elastic.NodeOf == nil || p.Elastic.ActiveNode == nil {
			add("elastic farm requires NodeOf and ActiveNode")
		}
	}
	return errors.Join(errs...)
}

// sharded reports whether the farm uses the sharded dispatcher protocol
// (dispatcher shard array, batched grants) rather than the single master.
func (p *Params) sharded() bool {
	return p.Shards > 1 || p.Elastic != nil || p.Serve
}

// batch reports the effective grant batch size.
func (p *Params) batch() int {
	if p.Batch <= 0 {
		return 1
	}
	return p.Batch
}

// costMul is the skew factor for task seq: 1 at seq 0, rising linearly to
// CostSkew at the last task. 1 everywhere when no skew is configured.
func (p *Params) costMul(seq int) float64 {
	if p.CostSkew <= 1 || p.Tasks <= 1 {
		return 1
	}
	return 1 + (p.CostSkew-1)*float64(seq)/float64(p.Tasks-1)
}

// Result is the run outcome.
type Result struct {
	Makespan  time.Duration
	PerTask   time.Duration // makespan / tasks
	Tasks     int
	Workers   int
	Sum       float64 // aggregated task outputs (verification)
	PerWorker []int   // tasks completed per worker

	// Checksum is the wrapping uint64 sum of each task value's IEEE-754
	// bit pattern. Integer addition commutes, so single-master and
	// sharded farms produce bit-identical checksums for the same task
	// set regardless of result arrival order (the float Sum cannot
	// promise that).
	Checksum uint64

	// Sharded-farm extras (zero/nil for the single-master program).
	Shards     int   // dispatcher shard count
	PerShard   []int // tasks granted (and completed) by each shard
	Steals     int   // successful steal acquisitions
	StealFails int   // steal requests answered empty
	StolenTask int   // tasks that moved between shards
}

// Imbalance reports max/min of a per-entity completion tally (0 when any
// entity completed nothing, Inf-free by construction).
func Imbalance(tally []int) float64 {
	if len(tally) == 0 {
		return 0
	}
	min, max := tally[0], tally[0]
	for _, n := range tally {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// taskMsg is one unit of work.
type taskMsg struct {
	Seq   int
	bytes int
}

// PayloadBytes implements core.Sizer.
func (t taskMsg) PayloadBytes() int {
	if t.bytes > 0 {
		return t.bytes
	}
	return core.DefaultPayloadBytes
}

func (t *taskMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &t.Seq)
	core.PUPUvarint(p, &t.bytes)
}

// resultMsg carries a task's output back.
type resultMsg struct {
	Seq    int
	Worker int
	Value  float64
	bytes  int
}

// PayloadBytes implements core.Sizer.
func (r resultMsg) PayloadBytes() int {
	if r.bytes > 0 {
		return r.bytes
	}
	return core.DefaultPayloadBytes
}

func (r *resultMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &r.Seq)
	core.PUPVarint(p, &r.Worker)
	core.PUPUvarint(p, &r.bytes)
	p.Float64(&r.Value)
}

// TaskValue is the deterministic "science" of task seq; the master sums
// these for verification.
func TaskValue(seq int) float64 {
	return math.Sin(float64(seq)*0.1) + 1.0
}

// ExpectedChecksum is the order-independent checksum of a full task set,
// computable without running the farm (tests and the CI smoke use it).
func ExpectedChecksum(tasks int) uint64 {
	var c uint64
	for seq := 0; seq < tasks; seq++ {
		c += math.Float64bits(TaskValue(seq))
	}
	return c
}

// spinSink absorbs the spin loop's accumulator so the compiler cannot
// prove the arithmetic dead and elide the loop — wall-clock runs must pay
// the modeled work. The wrapping bit-pattern add is race-safe across the
// real-time runtime's PE goroutines; the value itself is never read.
var spinSink atomic.Uint64

// runTask computes task seq: the deterministic value, the optional spin
// work (scaled by the cost skew), and the modeled charge. Both the
// single-message and batched worker paths go through here so their
// results are identical by construction.
func runTask(ctx *core.Ctx, p *Params, seq int) float64 {
	v := TaskValue(seq)
	mul := p.costMul(seq)
	if p.Spin > 0 {
		iters := int(float64(p.Spin) * mul)
		acc := 0.0
		for i := 0; i < iters; i++ {
			acc += float64(i%13) * 1e-12
		}
		spinSink.Add(math.Float64bits(acc))
	}
	if p.TaskCost > 0 {
		ctx.Charge(time.Duration(float64(p.TaskCost) * mul))
	}
	return v
}

// master coordinates the farm.
type master struct {
	p       *Params
	workers int

	next    int
	done    int
	sum     float64
	check   uint64
	perW    []int
	started time.Duration
}

func (m *master) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case entryStart:
		m.started = ctx.Time()
		m.perW = make([]int, m.workers)
		// Seed every worker with Prefetch tasks (or fewer if the farm is
		// small).
	seed:
		for round := 0; round < m.p.Prefetch; round++ {
			for w := 0; w < m.workers; w++ {
				if m.next >= m.p.Tasks {
					break seed
				}
				m.sendTask(ctx, w)
			}
		}
	case entryResult:
		r := data.(resultMsg)
		m.done++
		m.sum += r.Value
		m.check += math.Float64bits(r.Value)
		m.perW[r.Worker]++
		if m.next < m.p.Tasks {
			m.sendTask(ctx, r.Worker)
		}
		if m.done == m.p.Tasks {
			mk := ctx.Time() - m.started
			ctx.ExitWith(&Result{
				Makespan:  mk,
				PerTask:   mk / time.Duration(m.p.Tasks),
				Tasks:     m.p.Tasks,
				Workers:   m.workers,
				Sum:       m.sum,
				Checksum:  m.check,
				PerWorker: m.perW,
				Shards:    1,
				PerShard:  []int{m.done},
			})
		}
	default:
		panic(fmt.Sprintf("taskfarm: master got entry %d", entry))
	}
}

func (m *master) sendTask(ctx *core.Ctx, w int) {
	ctx.Charge(m.p.AssignCost)
	ctx.Send(core.ElemRef{Array: ArrayWorker, Index: w}, entryTask,
		taskMsg{Seq: m.next, bytes: m.p.TaskBytes})
	m.next++
}

// worker executes tasks. The same chare serves both farm shapes: the
// single master feeds it one taskMsg at a time; shards feed it
// taskBatchMsg grants and get resultBatchMsg replies.
type worker struct {
	p  *Params
	id int
	fm *farmMetrics

	// lastDone is the executor time at which this worker finished its
	// previous batch; the gap to the next batch's arrival is the
	// worker-observed assignment wait (the WRONJ "rest" time).
	lastDone time.Duration
}

// arrived and finished bracket a grant's execution for the assignment-wait
// histogram. A farm built without a registry has no histogram, and then
// neither reads the clock.
func (w *worker) arrived(ctx *core.Ctx) {
	if w.fm.assignWait != nil {
		w.fm.assignWait.Observe(int64(ctx.Time() - w.lastDone))
	}
}

func (w *worker) finished(ctx *core.Ctx) {
	if w.fm.assignWait != nil {
		w.lastDone = ctx.Time()
	}
}

func (w *worker) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case entryTask:
		t := data.(taskMsg)
		w.arrived(ctx)
		v := runTask(ctx, w.p, t.Seq)
		w.finished(ctx)
		ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryResult,
			resultMsg{Seq: t.Seq, Worker: w.id, Value: v, bytes: w.p.TaskBytes})
	case entryTaskBatch:
		w.recvBatch(ctx, data.(taskBatchMsg))
	default:
		panic(fmt.Sprintf("taskfarm: worker got entry %d", entry))
	}
}

// BuildProgram assembles the farm. The master (or, with Shards > 1, the
// root collector plus the dispatcher shard array) lives on PE 0; workers
// are block-mapped over all PEs (so in a two-cluster machine half of them
// sit across the WAN from the master).
func BuildProgram(p *Params) (*core.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// An array's size must be fixed before the program sees a machine, so
	// Workers == 0 ("one per PE") cannot be resolved here: it is an error,
	// and callers that want the per-PE default must go through
	// BuildProgramFor, which knows numPE and fills Workers in.
	if p.Workers <= 0 {
		return nil, fmt.Errorf("taskfarm: Workers must be set (use BuildProgramFor for one-per-PE)")
	}
	if p.sharded() {
		return buildSharded(p)
	}
	prog := &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: ArrayMaster, N: 1,
				Map: func(int, int) int { return 0 },
				New: func(int) core.Chare { return nil }, // set below
			},
			{
				ID: ArrayWorker, N: 1, // set below
				New: func(int) core.Chare { return nil },
			},
		},
	}
	prog.Start = func(ctx *core.Ctx) {
		ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryStart, nil)
	}
	nw := p.Workers
	fm := newFarmMetrics(p)
	prog.Arrays[ArrayMaster].New = func(int) core.Chare { return &master{p: p, workers: nw} }
	prog.Arrays[ArrayWorker].N = nw
	prog.Arrays[ArrayWorker].New = func(i int) core.Chare { return &worker{p: p, id: i, fm: fm} }
	if p.DedicatedMaster {
		prog.Arrays[ArrayWorker].Map = func(i, numPE int) int {
			if numPE == 1 {
				return 0
			}
			return 1 + core.BlockMap(i, nw, numPE-1)
		}
	}
	return prog, nil
}

// BuildProgramFor builds the farm with one worker per PE of a machine
// with numPE processors.
func BuildProgramFor(p *Params, numPE int) (*core.Program, error) {
	q := *p
	if q.Workers <= 0 {
		q.Workers = numPE
	}
	return BuildProgram(&q)
}
