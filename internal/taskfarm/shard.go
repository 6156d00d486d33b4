package taskfarm

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
)

// The farm dispatches through a chare array of dispatcher shards; a single
// master is the array of one. The WRONJ analysis (SNIPPETS.md §2) caps one
// dispatcher's useful worker count at JT/AT — job time over per-assignment
// dispatcher time; past that knee extra workers just queue at it.
// Sharding multiplies the aggregate assignment rate by the shard count
// (each shard owns a contiguous slice of the task space and of the worker
// array, so the slices never contend), batching divides the per-task
// framing cost by Batch, and randomized work stealing keeps the static
// partition from stranding cycles when per-task cost is skewed.
//
// Topology of a run:
//
//	root (ArrayMaster/0, PE 0)      — aggregates progress, owns the exit
//	shards (ArrayShard/s)           — own tasks [s·T/S, (s+1)·T/S) and
//	                                  workers [s·W/S, (s+1)·W/S); placed
//	                                  on the PE of their first worker
//	workers (ArrayWorker/w)         — block-mapped over all PEs
//
// Steady state per worker: the owning shard keeps Prefetch grants in
// flight and each resultBatchMsg triggers one new grant. A count-only
// result (Done, Sum, Check) is folded into the shard's running totals,
// and the shard sends the root one progressMsg when it goes quiet — no
// pending tasks, no grant outstanding — so the root counts shards, not
// tasks, and the steady-state farm sends nothing across the WAN but
// steals. A result carrying per-task values (a serve farm's) is
// forwarded at once. When a shard's pending deque drains it
// asks a uniformly random other shard for half its pending work, bounded
// by stealTries consecutive refusals (an exhausted thief stays out of the
// steal market — stealing is an optimization, every task has an owner
// whose workers will run it regardless).

// farmMetrics bundles the farm's metrics handles. Handles are nil-safe,
// so a farm built without a registry carries no-op handles rather than
// branching at every observation site.
type farmMetrics struct {
	assignWait *metrics.Histogram // worker-observed gap between batches
	grants     *metrics.Counter   // grant messages sent
	granted    *metrics.Counter   // tasks granted
	steals     *metrics.Counter   // successful steal acquisitions
	stealFails *metrics.Counter   // steal requests answered empty
	stolen     *metrics.Counter   // tasks moved between shards

	// workerDone counts tasks executed by workers hosted on this process.
	// Unlike grants/granted/shardTasks — which increment on the shard
	// side and so accumulate only where the shards live — every task
	// lands in exactly one worker's count, so summing this series across
	// a cluster's nodes yields the exact number of tasks executed: the
	// invariant the telemetry collector's aggregate view is checked
	// against.
	workerDone *metrics.Counter

	shardTasks []*metrics.Counter // completed per shard
}

func newFarmMetrics(p *Params) *farmMetrics {
	r := p.Metrics // nil is a valid "metrics off" registry
	fm := &farmMetrics{
		assignWait: r.Histogram("taskfarm_assign_wait_ns", metrics.DurationBuckets),
		grants:     r.Counter("taskfarm_grants_total"),
		granted:    r.Counter("taskfarm_tasks_granted_total"),
		steals:     r.Counter("taskfarm_steals_total"),
		stealFails: r.Counter("taskfarm_steal_fails_total"),
		stolen:     r.Counter("taskfarm_stolen_tasks_total"),
		workerDone: r.Counter("taskfarm_worker_tasks_total"),
		shardTasks: make([]*metrics.Counter, p.shards()),
	}
	for i := range fm.shardTasks {
		fm.shardTasks[i] = r.Counter("taskfarm_shard_tasks_total",
			metrics.L("shard", strconv.Itoa(i)))
	}
	return fm
}

// stealTries bounds consecutive refused steal requests per drain episode;
// the count resets whenever the shard acquires tasks.
const stealTries = 4

// recvBatch executes one grant and replies with pre-reduced results. The
// gap between finishing the previous batch and this one arriving is the
// worker-observed assignment wait — the WRONJ "rest" time that grows
// past the knee.
func (w *worker) recvBatch(ctx *core.Ctx, t taskBatchMsg) {
	w.arrived(ctx)
	var (
		sum    float64
		check  uint64
		done   int32
		values []float64
	)
	if w.p.Serve {
		// A serve farm's submitters want each task's value back, not just
		// the reduction — echo them alongside the granted ranges.
		values = make([]float64, 0, t.count())
	}
	for _, r := range t.Ranges {
		for seq := r.Lo; seq < r.Lo+r.N; seq++ {
			v := runTask(ctx, w.p, int(seq))
			sum += v
			check += math.Float64bits(v)
			done++
			if values != nil {
				values = append(values, v)
			}
		}
	}
	w.finished(ctx)
	w.fm.workerDone.Add(int64(done))
	rb := resultBatchMsg{Worker: int32(w.id), Done: done, Sum: sum, Check: check,
		Ranges: t.Ranges, Values: values, bytes: w.p.TaskBytes * int(done)}
	ctx.Send(core.ElemRef{Array: ArrayShard, Index: int(t.Shard)}, entryResultBatch, rb)
}

// shard is one dispatcher.
type shard struct {
	p   *Params
	id  int
	fm  *farmMetrics
	wLo int // first owned worker (absolute index)

	// pending is the undispatched task deque as ranges: grants pop the
	// front (preserving sequential order for cache-friendly victims),
	// steals pop the back (the work the owner would reach last).
	pending []taskRange
	avail   int64 // total tasks across pending

	out  []int   // outstanding grants per owned worker (wLo-relative)
	perW []int32 // completed per owned worker (wLo-relative)

	granted    int64 // tasks granted
	grants     int64 // grant messages
	steals     int64 // successful acquisitions as thief
	stealFails int64 // refused requests as thief
	stolenIn   int64 // tasks acquired by stealing
	victimized int64 // tasks given away

	// The fold: count-only results completed since the last progress
	// report, sent when the shard goes quiet (reportIfQuiet).
	foldDone  int32
	foldSum   float64
	foldCheck uint64

	rng      uint64 // splitmix64 state for victim selection
	fails    int    // consecutive refusals this drain episode
	stealing bool   // a steal request is in flight

	// outRanges mirrors out as the FIFO of granted-but-unsettled task
	// ranges per owned worker — each result settles the ranges it echoes
	// (settle), a death re-queues whatever remains. Elastic state (see
	// elastic.go; quiet in static farms): grantable/drainNode are nil
	// until the first membership notification.
	outRanges [][]taskRange
	grantable []bool  // grants may flow to this worker (nil: all may)
	drainNode []int32 // node draining under this worker, -1 none (nil: none)
}

// newShard builds shard id with its statically owned task and worker
// slices. The pending deque is populated at construction, not at
// entryShardStart, so a steal request that races ahead of the start
// broadcast still sees the victim's real inventory.
func newShard(p *Params, id int, fm *farmMetrics) *shard {
	ns, nw := p.shards(), p.Workers
	wLo, wHi := id*nw/ns, (id+1)*nw/ns
	tLo, tHi := id*p.Tasks/ns, (id+1)*p.Tasks/ns
	s := &shard{
		p: p, id: id, fm: fm, wLo: wLo,
		out:       make([]int, wHi-wLo),
		perW:      make([]int32, wHi-wLo),
		outRanges: make([][]taskRange, wHi-wLo),
		rng:       p.Seed ^ (uint64(id+1) * 0xd1342543de82ef95),
	}
	if tHi > tLo {
		s.pending = []taskRange{{Lo: int64(tLo), N: int64(tHi - tLo)}}
		s.avail = int64(tHi - tLo)
	}
	return s
}

// nextRand steps the splitmix64 generator — deterministic, per-shard, and
// PUPable, unlike math/rand's hidden global state.
func (s *shard) nextRand() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *shard) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case entryShardStart:
		s.fill(ctx)
		s.maybeSteal(ctx) // a zero-task shard can start thieving at once
	case entryResultBatch:
		rb := data.(resultBatchMsg)
		wi := int(rb.Worker) - s.wLo
		if !s.settle(wi, rb.Ranges) {
			break // stale: the ranges were re-queued and run again (see settle)
		}
		s.out[wi]--
		s.perW[wi] += rb.Done
		s.fm.shardTasks[s.id].Add(int64(rb.Done))
		if rb.Values != nil {
			// A serve farm's submitters are waiting on each task's value:
			// forward it at once.
			ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryProgress,
				progressMsg{Shard: int32(s.id), Done: rb.Done, Sum: rb.Sum, Check: rb.Check,
					Ranges: rb.Ranges, Values: rb.Values})
		} else {
			if s.foldDone > math.MaxInt32-rb.Done {
				s.report(ctx) // keep the fold inside progressMsg's count
			}
			s.foldDone += rb.Done
			s.foldSum += rb.Sum
			s.foldCheck += rb.Check
		}
		if s.avail > 0 {
			s.grantTo(ctx, wi)
		} else {
			s.maybeSteal(ctx)
		}
		s.drainClearCheck(ctx, wi)
	case entrySubmit:
		sm := data.(submitMsg)
		var n int64
		for _, r := range sm.Ranges {
			n += r.N
		}
		if n == 0 {
			break
		}
		s.pending = append(s.pending, sm.Ranges...)
		s.avail += n
		// New inventory reopens the steal market for this shard's next
		// drain episode and tops every idle worker back up.
		s.fails = 0
		s.fill(ctx)
	case entryStealReq:
		rq := data.(stealReqMsg)
		var give []taskRange
		// Hand over half of pending, but never break a final batch: a
		// victim with one batch or less refuses, which is what lets the
		// endgame converge (all-refused thieves retire after stealTries).
		if s.avail > int64(s.p.Batch) {
			give = s.popBack(s.avail / 2)
			var n int64
			for _, r := range give {
				n += r.N
			}
			s.victimized += n
			s.fm.stolen.Add(n)
		}
		ctx.Send(core.ElemRef{Array: ArrayShard, Index: int(rq.Thief)}, entryStealRsp,
			stealRspMsg{Victim: int32(s.id), Ranges: give})
	case entryStealRsp:
		rsp := data.(stealRspMsg)
		s.stealing = false
		var got int64
		for _, r := range rsp.Ranges {
			got += r.N
		}
		if got > 0 {
			s.steals++
			s.stolenIn += got
			s.fails = 0
			s.fm.steals.Inc()
			s.pending = append(s.pending, rsp.Ranges...)
			s.avail += got
			s.fill(ctx)
		} else {
			s.fails++
			s.stealFails++
			s.fm.stealFails.Inc()
		}
		s.maybeSteal(ctx)
	case entryMembers:
		mm := data.(shardMembersMsg)
		s.grantable = mm.Grantable
		s.drainNode = mm.Drain
		for _, wi := range mm.Requeue {
			s.requeueWorker(int(wi))
		}
		s.fill(ctx)
		s.maybeSteal(ctx)
		for wi := range s.out {
			s.drainClearCheck(ctx, wi)
		}
	case entryReportReq:
		ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryReport,
			shardReportMsg{
				Shard: int32(s.id), PerW: s.perW,
				Granted: s.granted, Steals: s.steals, StealFails: s.stealFails,
				Stolen: s.stolenIn, Victimized: s.victimized,
			})
	default:
		panic(fmt.Sprintf("taskfarm: shard got entry %d", entry))
	}
	s.reportIfQuiet(ctx)
}

// reportIfQuiet sends the root the folded completions once the shard has
// gone quiet: nothing left to grant and no grant outstanding, so no
// result can extend the fold until new work arrives by steal or submit.
// It runs at the end of every shard handler; the cheap tests come first,
// so the scan of out only runs in a shard's endgame. A shard that goes
// quiet, steals work and goes quiet again reports again.
func (s *shard) reportIfQuiet(ctx *core.Ctx) {
	if s.foldDone == 0 || s.avail > 0 {
		return
	}
	for _, n := range s.out {
		if n > 0 {
			return
		}
	}
	s.report(ctx)
}

// report sends the folded completions to the root and empties the fold.
func (s *shard) report(ctx *core.Ctx) {
	ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryProgress,
		progressMsg{Shard: int32(s.id), Done: s.foldDone, Sum: s.foldSum, Check: s.foldCheck})
	s.foldDone, s.foldSum, s.foldCheck = 0, 0, 0
}

// chunk is the guided-self-scheduling grant size: Batch while inventory
// is deep, shrinking with the remaining pool (divided across the up-to
// 2 x Prefetch x workers grants the pipeline keeps in flight) so the tail
// is granted in slivers. Without the taper a large Batch x Prefetch x
// workers product pre-grants the shard's whole slice into worker queues
// at start, where neither stealing nor self-scheduling can rebalance it.
func (s *shard) chunk() int64 {
	c := s.avail / int64(2*s.p.Prefetch*len(s.out))
	if c < 1 {
		c = 1
	}
	if b := int64(s.p.Batch); c > b {
		c = b
	}
	return c
}

// grantTo pops one chunk and sends it to owned worker wi. The per-task
// AssignCost charge is what makes the dispatcher a modeled bottleneck —
// batching amortizes framing, not assignment work.
func (s *shard) grantTo(ctx *core.Ctx, wi int) {
	if !s.canGrant(wi) {
		return
	}
	rs := s.popFront(s.chunk())
	if len(rs) == 0 {
		return
	}
	var n int64
	for _, r := range rs {
		n += r.N
	}
	if s.p.AssignCost > 0 {
		ctx.Charge(time.Duration(n) * s.p.AssignCost)
	}
	s.grants++
	s.granted += n
	s.out[wi]++
	s.outRanges[wi] = append(s.outRanges[wi], rs...)
	s.fm.grants.Inc()
	s.fm.granted.Add(n)
	ctx.Send(core.ElemRef{Array: ArrayWorker, Index: s.wLo + wi}, entryTaskBatch,
		taskBatchMsg{Shard: int32(s.id), Ranges: rs, bytes: s.p.TaskBytes * int(n)})
}

// fill tops every owned worker up to Prefetch outstanding grants,
// round-robin so a short supply seeds workers evenly.
func (s *shard) fill(ctx *core.Ctx) {
	for more := true; more && s.avail > 0; {
		more = false
		for wi := range s.out {
			if s.avail == 0 {
				break
			}
			if s.out[wi] < s.p.Prefetch && s.canGrant(wi) {
				s.grantTo(ctx, wi)
				more = true
			}
		}
	}
}

// maybeSteal fires one steal request at a uniformly random other shard if
// this shard is drained, no request is already in flight, and the drain
// episode hasn't exhausted its tries.
func (s *shard) maybeSteal(ctx *core.Ctx) {
	ns := s.p.shards()
	if !s.p.Steal || ns < 2 || s.stealing || s.avail > 0 || s.fails >= stealTries {
		return
	}
	v := int(s.nextRand() % uint64(ns-1))
	if v >= s.id {
		v++
	}
	s.stealing = true
	ctx.Send(core.ElemRef{Array: ArrayShard, Index: v}, entryStealReq,
		stealReqMsg{Thief: int32(s.id)})
}

// popFront removes up to n tasks from the front of the deque.
func (s *shard) popFront(n int64) []taskRange {
	var out []taskRange
	for n > 0 && len(s.pending) > 0 {
		r := &s.pending[0]
		take := r.N
		if take > n {
			take = n
		}
		out = append(out, taskRange{Lo: r.Lo, N: take})
		r.Lo += take
		r.N -= take
		n -= take
		s.avail -= take
		if r.N == 0 {
			s.pending = s.pending[1:]
		}
	}
	return out
}

// popBack removes up to n tasks from the back of the deque.
func (s *shard) popBack(n int64) []taskRange {
	var out []taskRange
	for n > 0 && len(s.pending) > 0 {
		r := &s.pending[len(s.pending)-1]
		take := r.N
		if take > n {
			take = n
		}
		out = append(out, taskRange{Lo: r.Lo + r.N - take, N: take})
		r.N -= take
		n -= take
		s.avail -= take
		if r.N == 0 {
			s.pending = s.pending[:len(s.pending)-1]
		}
	}
	return out
}

// canGrant reports whether grants may flow to owned worker wi. A farm
// that never saw a membership notification grants to everyone.
func (s *shard) canGrant(wi int) bool {
	return s.grantable == nil || s.grantable[wi]
}

// settle removes the ranges a result answers from owned worker wi's
// outstanding FIFO and reports whether they were outstanding. A result
// normally answers the oldest grant, but a death breaks both halves of
// that: the shard learns of it only after the worker was re-homed, so a
// grant sent in between reaches the live new home and may be answered
// ahead of the dead node's grants, and once requeueWorker has put the
// ranges back on the deque a late answer for them is stale — the tasks
// run again, and counting it would count them twice. Matching by
// content settles exactly the tasks that ran; a result whose ranges are
// no longer outstanding here is ignored.
func (s *shard) settle(wi int, rs []taskRange) bool {
	q := s.outRanges[wi]
	for i := 0; len(rs) > 0 && i+len(rs) <= len(q); i++ {
		if !equalRanges(q[i:i+len(rs)], rs) {
			continue
		}
		if i == 0 {
			s.outRanges[wi] = q[len(rs):]
		} else {
			s.outRanges[wi] = append(q[:i], q[i+len(rs):]...)
		}
		return true
	}
	return false
}

// requeueWorker returns worker wi's unsettled grants to the front of the
// pending deque — the death path. A result for these ranges that still
// arrives (sent before the epoch fence, or by the worker's new home for
// a grant made before the shard learned of the death) no longer
// settles anything, so granting them again is safe.
func (s *shard) requeueWorker(wi int) {
	q := s.outRanges[wi]
	if len(q) == 0 {
		s.out[wi] = 0
		return
	}
	var n int64
	for _, r := range q {
		n += r.N
	}
	s.pending = append(append([]taskRange{}, q...), s.pending...)
	s.avail += n
	s.out[wi] = 0
	s.outRanges[wi] = nil
}

// drainClearCheck tells the root when a draining worker's outstanding
// count reaches zero — this shard's contribution to drain completion.
// Fires once per worker per drain episode.
func (s *shard) drainClearCheck(ctx *core.Ctx, wi int) {
	if s.drainNode == nil || s.drainNode[wi] < 0 || s.out[wi] != 0 {
		return
	}
	node := s.drainNode[wi]
	s.drainNode[wi] = -1
	ctx.Send(core.ElemRef{Array: ArrayMaster, Index: 0}, entryDrainClear,
		drainClearMsg{Node: node, Worker: int32(s.wLo + wi)})
}

// root aggregates shard progress and owns the run's exit. It never
// touches individual tasks of a batch farm: its message load is one
// progressMsg per shard quiet spell (one per shard without stealing, at
// most one more per successful steal) plus one report per shard, so it
// is not a WRONJ bottleneck at any modeled scale. A serve farm's root
// gets one progressMsg per result batch, each carrying the values
// OnTaskDone hands back.
type root struct {
	p       *Params
	shards  int
	workers int

	started  time.Duration
	makespan time.Duration
	done     int
	sum      float64
	check    uint64

	reports    int
	perW       []int
	perShard   []int
	steals     int
	stealFails int
	stolen     int

	// Drain bookkeeping (elastic farms): per draining node, how many
	// worker clears to await and which workers have cleared. Coordinator-
	// local and transient.
	drainExpect map[int32]int
	drainSeen   map[int32]map[int32]bool
}

// checkDrained fires Params.OnDrained once every expected worker on a
// draining node has cleared its outstanding grants.
func (r *root) checkDrained(node int32) {
	if len(r.drainSeen[node]) < r.drainExpect[node] {
		return
	}
	delete(r.drainSeen, node)
	delete(r.drainExpect, node)
	if r.p.OnDrained != nil {
		r.p.OnDrained(int(node))
	}
}

func (r *root) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case entryStart:
		r.started = ctx.Time()
		r.perW = make([]int, r.workers)
		r.perShard = make([]int, r.shards)
		ctx.Broadcast(ArrayShard, entryShardStart, nil)
	case entryProgress:
		pm := data.(progressMsg)
		r.done += int(pm.Done)
		r.sum += pm.Sum
		r.check += pm.Check
		if r.p.OnTaskDone != nil {
			i := 0
			for _, rg := range pm.Ranges {
				for seq := rg.Lo; seq < rg.Lo+rg.N; seq++ {
					r.p.OnTaskDone(seq, pm.Values[i])
					i++
				}
			}
		}
		// A fold overshoots Tasks only if a task ran twice; finishing on
		// the crossing turns that into a checksum mismatch, not a hang.
		if !r.p.Serve && r.done >= r.p.Tasks && r.done-int(pm.Done) < r.p.Tasks {
			// Makespan is pinned here; the report round-trip below is
			// accounting, not farm time. A serve farm never self-exits:
			// its task space is open-ended and the embedding process owns
			// the runtime's lifetime.
			r.makespan = ctx.Time() - r.started
			ctx.Broadcast(ArrayShard, entryReportReq, nil)
		}
	case entryMembersRoot:
		rm := data.(rootMembersMsg)
		if r.drainSeen == nil {
			r.drainExpect = make(map[int32]int)
			r.drainSeen = make(map[int32]map[int32]bool)
		}
		r.drainExpect[rm.DrainNode] = int(rm.Expect)
		if r.drainSeen[rm.DrainNode] == nil {
			r.drainSeen[rm.DrainNode] = make(map[int32]bool)
		}
		r.checkDrained(rm.DrainNode)
	case entryDrainClear:
		dc := data.(drainClearMsg)
		seen := r.drainSeen[dc.Node]
		if seen == nil {
			break // the node already completed its drain
		}
		seen[dc.Worker] = true
		r.checkDrained(dc.Node)
	case entryReport:
		rm := data.(shardReportMsg)
		s := int(rm.Shard)
		wLo := s * r.workers / r.shards
		total := 0
		for i, c := range rm.PerW {
			r.perW[wLo+i] = int(c)
			total += int(c)
		}
		r.perShard[s] = total
		r.steals += int(rm.Steals)
		r.stealFails += int(rm.StealFails)
		r.stolen += int(rm.Stolen)
		r.reports++
		if r.reports == r.shards {
			ctx.ExitWith(&Result{
				Makespan:   r.makespan,
				PerTask:    r.makespan / time.Duration(r.p.Tasks),
				Tasks:      r.p.Tasks,
				Workers:    r.workers,
				Sum:        r.sum,
				Checksum:   r.check,
				PerWorker:  r.perW,
				Shards:     r.shards,
				PerShard:   r.perShard,
				Steals:     r.steals,
				StealFails: r.stealFails,
				StolenTask: r.stolen,
			})
		}
	default:
		panic(fmt.Sprintf("taskfarm: root got entry %d", entry))
	}
}
