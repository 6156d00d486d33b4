// Package taskfarm implements a master/worker ("master-slave") farm, the
// application class the paper's introduction names as naturally
// Grid-tolerant: "master-slave style applications are also good
// candidates for Grid environments because they typically have small
// communication requirements and because communication delays are often
// not on the critical path."
//
// The farm self-schedules: a dispatcher seeds each of its workers with
// Prefetch outstanding grants and sends a new one as each result returns,
// so a worker with Prefetch >= 2 always has a task in hand while the next
// one is in flight — the class's own latency-masking mechanism,
// complementing the object-level overlap the tightly-coupled applications
// rely on. There is one program shape (shard.go): a root collector, an
// array of dispatcher shards and the workers. The classic single master
// is that shape with one shard and one task per grant.
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

// Arrays. ArrayMaster holds the one root collector.
const (
	ArrayMaster core.ArrayID = 0
	ArrayWorker core.ArrayID = 1
	ArrayShard  core.ArrayID = 2
)

// Entry methods. 1 and 2 were the single master's per-task pair and are
// not reused.
const (
	entryStart       core.EntryID = 0  // root: begin farming
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

	// AssignCost is the modeled dispatcher CPU per task assignment — the
	// WRONJ "AT". A shard charges it for every task it grants, so one
	// dispatcher's throughput caps at 1/AssignCost and the knee at
	// Workers ~= TaskCost/AssignCost is reproducible in virtual time.
	AssignCost time.Duration

	// Shards is the number of dispatcher shards (shard.go), each owning a
	// contiguous slice of the task space and of the worker array. 0 means
	// 1: a single dispatcher.
	Shards int

	// Batch is the cap on tasks per grant message (results return batched
	// the same way) and must be >= 1. With Shards 1 and Batch 1 the farm
	// is the single master: one grant and one result message per task.
	Batch int

	// Steal lets a drained shard take pending tasks from a randomly
	// chosen victim shard. Only meaningful with Shards > 1.
	Steal bool

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
	// by a Notifier.
	Elastic *ElasticConfig

	// OnDrained is called from the root's handler when every
	// outstanding grant to a draining node's workers has settled — wire
	// it to core.Membership.NotifyDrained. Elastic farms only.
	OnDrained func(node int)

	// Serve turns the farm into an open-ended service: it starts with an
	// empty task space (Tasks must be 0) and executes ranges injected into
	// live shards by a Service (see serve.go). The root never exits on its
	// own — the embedding process owns the runtime's lifetime.
	Serve bool

	// OnTaskDone is called from the root's handler for every completed
	// task in a serve farm, with the task's sequence number and computed
	// value. Called on the root's PE goroutine; keep it cheap and
	// non-blocking. Serve farms only: Validate rejects it elsewhere.
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
	} else {
		if p.Tasks <= 0 {
			add("%d tasks", p.Tasks)
		}
		// Only a serve farm's results carry per-task values; a batch
		// farm's shards fold counts, and the hook would never run.
		if p.OnTaskDone != nil {
			add("OnTaskDone needs a serve farm")
		}
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
	// Batch <= 0 used to be silently coerced to 1, hiding misconfiguration
	// behind a 16x-slower wire; it is an explicit error for every farm.
	if p.Batch < 1 {
		add("Batch must be >= 1 (have %d)", p.Batch)
	}
	if p.Workers > 0 && p.Workers < p.Shards {
		add("%d shards need at least that many workers (have %d)", p.Shards, p.Workers)
	}
	if p.CostSkew != 0 && p.CostSkew < 1 {
		add("cost skew %v < 1", p.CostSkew)
	}
	if p.Elastic != nil && (p.Elastic.NodeOf == nil || p.Elastic.ActiveNode == nil) {
		add("elastic farm requires NodeOf and ActiveNode")
	}
	return errors.Join(errs...)
}

// shards is the resolved dispatcher count: Shards, with 0 meaning 1.
// Everything that divides the task or worker space by the shard count
// reads it here.
func (p *Params) shards() int {
	if p.Shards < 1 {
		return 1
	}
	return p.Shards
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
	// bit pattern. Integer addition commutes, so every shard count, batch
	// size and steal schedule produces a bit-identical checksum for the
	// same task set regardless of result arrival order (the float Sum
	// cannot promise that).
	Checksum uint64

	// Dispatcher accounting.
	Shards     int   // dispatcher shard count (1 for a single dispatcher)
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

// TaskValue is the deterministic "science" of task seq; the root sums
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
// work (scaled by the cost skew), and the modeled charge.
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

// worker executes tasks: its shard feeds it taskBatchMsg grants and gets
// one resultBatchMsg back per grant.
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
	if entry != entryTaskBatch {
		panic(fmt.Sprintf("taskfarm: worker got entry %d", entry))
	}
	w.recvBatch(ctx, data.(taskBatchMsg))
}

// BuildProgram assembles the farm: the root collector, the dispatcher
// shards and the workers, whatever the shard count. Workers are
// block-mapped over all PEs (so in a two-cluster machine half of them sit
// across the WAN from a single dispatcher) and shard s sits on the PE of
// its first owned worker, so grant/result traffic is intra-PE or at worst
// intra-cluster and only steal and progress traffic crosses the machine.
// A one-shard farm therefore has its dispatcher on PE 0, next to the root.
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
	nw, ns := p.Workers, p.shards()
	fm := newFarmMetrics(p)
	workerPE := func(i, numPE int) int {
		if e := p.Elastic; e != nil {
			act := e.activePEs(numPE)
			return act[core.BlockMap(i, nw, len(act))]
		}
		return core.BlockMap(i, nw, numPE)
	}
	// Elastic farms pin the root and every dispatcher shard to the
	// coordinator's PEs: the membership notifier, the dispatchers, and
	// the drain protocol then share one process, and grants are the only
	// application traffic that crosses nodes.
	shardPE := func(s, numPE int) int {
		if e := p.Elastic; e != nil {
			cp := e.coordPEs(numPE)
			return cp[s%len(cp)]
		}
		return workerPE(s*nw/ns, numPE)
	}
	rootPE := func(_, numPE int) int {
		if e := p.Elastic; e != nil {
			return e.coordPEs(numPE)[0]
		}
		return 0
	}
	return &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: ArrayMaster, N: 1,
				Map: rootPE,
				New: func(int) core.Chare { return &root{p: p, shards: ns, workers: nw} },
			},
			{
				ID: ArrayWorker, N: nw,
				Map: workerPE,
				New: func(i int) core.Chare { return &worker{p: p, id: i, fm: fm} },
			},
			{
				ID: ArrayShard, N: ns,
				Map: shardPE,
				New: func(s int) core.Chare { return newShard(p, s, fm) },
			},
		},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryStart, nil)
		},
	}, nil
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
