package taskfarm

import "gridmdo/internal/core"

// The farm's wire protocol. Batched grants and results amortize
// per-message framing the way core.Queue's PopBatch amortizes the queue
// lock: one message carries Batch tasks, so the dispatcher's per-task
// cost degrades from (assign + frame) to (assign + frame/Batch). Every
// protocol type below is a registered payload whose PUP method packs
// varints — at millions of tasks the codec *is* the hot path, and a task
// index that fits a byte costs a byte.

// taskRange is a contiguous run of task sequence numbers [Lo, Lo+N).
// Shards track and transfer the task space as range lists, so a grant of
// 64 consecutive tasks costs a handful of varint bytes, not 64 integers.
type taskRange struct {
	Lo int64
	N  int64
}

// taskBatchMsg grants a batch of tasks to one worker.
type taskBatchMsg struct {
	Shard  int32       // granting shard; results return to it
	Ranges []taskRange // tasks in execution order
	bytes  int         // modeled payload size (TaskBytes × task count)
}

// PayloadBytes implements core.Sizer.
func (t taskBatchMsg) PayloadBytes() int {
	if t.bytes > 0 {
		return t.bytes
	}
	return core.DefaultPayloadBytes
}

// count is the number of tasks granted.
func (t taskBatchMsg) count() int64 {
	var n int64
	for _, r := range t.Ranges {
		n += r.N
	}
	return n
}

// resultBatchMsg returns one grant's aggregated results. Values are
// pre-reduced by the worker: the float sum (verification, tolerance
// compare) and the wrapping bit-pattern checksum (bit-exact compare,
// order-independent by construction). Ranges echoes the grant, so the
// shard settles exactly the tasks that ran (shard.settle). Serve farms
// additionally carry one value per task (in range order), so the
// submitter can route each result back to the job that asked for it;
// batch runs leave Values nil and pay nothing for it on the wire.
type resultBatchMsg struct {
	Worker int32
	Done   int32
	Sum    float64
	Check  uint64
	Ranges []taskRange // the granted ranges, as executed
	Values []float64   // serve farms only; len == total task count of Ranges
	bytes  int
}

// PayloadBytes implements core.Sizer.
func (r resultBatchMsg) PayloadBytes() int {
	if r.bytes > 0 {
		return r.bytes
	}
	return core.DefaultPayloadBytes
}

// stealReqMsg asks a victim shard for work.
type stealReqMsg struct {
	Thief int32
}

// stealRspMsg answers a steal request; empty Ranges means the victim had
// nothing to spare.
type stealRspMsg struct {
	Victim int32
	Ranges []taskRange
}

// progressMsg reports a completion delta from a shard to the root
// collector: a batch farm's shard sends its folded totals once per quiet
// spell, a serve farm's shard one per result batch with the values.
type progressMsg struct {
	Shard  int32
	Done   int32
	Sum    float64
	Check  uint64
	Ranges []taskRange // serve farms only (see resultBatchMsg)
	Values []float64   // serve farms only
}

// submitMsg injects externally submitted task ranges into a live shard's
// pending deque — the serve farm's ingest path. Posted (not Sent) by a
// Service from outside the runtime's PE goroutines.
type submitMsg struct {
	Ranges []taskRange
}

// shardReportMsg is a shard's final tally, sent when the root announces
// global completion.
type shardReportMsg struct {
	Shard      int32
	PerW       []int32 // completed per owned worker, wLo-relative
	Granted    int64
	Steals     int64
	StealFails int64
	Stolen     int64
	Victimized int64
}

// Payload tags: the farm owns 64–79 (DESIGN.md has the table). 70 and 71
// were the single master's per-task pair; they are retired, not free.
const (
	tagTaskBatch   byte = 64
	tagResultBatch byte = 65
	tagStealReq    byte = 66
	tagStealRsp    byte = 67
	tagProgress    byte = 68
	tagShardReport byte = 69
	tagSubmit      byte = 72
)

func init() {
	core.RegisterPayload[taskBatchMsg](tagTaskBatch)
	core.RegisterPayload[resultBatchMsg](tagResultBatch)
	core.RegisterPayload[stealReqMsg](tagStealReq)
	core.RegisterPayload[stealRspMsg](tagStealRsp)
	core.RegisterPayload[progressMsg](tagProgress)
	core.RegisterPayload[shardReportMsg](tagShardReport)
	core.RegisterPayload[submitMsg](tagSubmit)
}

// pupRanges moves a range list — in messages and in a shard's packed
// state alike: a count, then per range a signed delta from the previous
// range's end (the first is absolute) and a length. Grants usually carry
// one or two near-adjacent ranges, so the whole list is a few bytes.
func pupRanges(p *core.PUP, rs *[]taskRange) {
	prevEnd := int64(0)
	core.PUPSlice(p, rs, 2, 0, func(r *taskRange, p *core.PUP) {
		d := r.Lo - prevEnd
		p.Varint(&d)
		if p.Unpacking() {
			r.Lo = prevEnd + d
		}
		core.PUPUvarint(p, &r.N)
		prevEnd = r.Lo + r.N
	})
}

func (m *taskBatchMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &m.Shard)
	core.PUPUvarint(p, &m.bytes)
	pupRanges(p, &m.Ranges)
}

func (m *resultBatchMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &m.Worker)
	core.PUPVarint(p, &m.Done)
	core.PUPUvarint(p, &m.bytes)
	p.Float64(&m.Sum)
	p.Uint64(&m.Check)
	pupRanges(p, &m.Ranges)
	p.Float64s(&m.Values)
}

func (m *stealReqMsg) PUP(p *core.PUP) { core.PUPVarint(p, &m.Thief) }

func (m *stealRspMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &m.Victim)
	pupRanges(p, &m.Ranges)
}

func (m *progressMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &m.Shard)
	core.PUPVarint(p, &m.Done)
	p.Float64(&m.Sum)
	p.Uint64(&m.Check)
	pupRanges(p, &m.Ranges)
	p.Float64s(&m.Values)
}

func (m *submitMsg) PUP(p *core.PUP) { pupRanges(p, &m.Ranges) }

func (m *shardReportMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &m.Shard)
	core.PUPSlice(p, &m.PerW, 1, 0, func(n *int32, p *core.PUP) { core.PUPUvarint(p, n) })
	p.Varint(&m.Granted)
	p.Varint(&m.Steals)
	p.Varint(&m.StealFails)
	p.Varint(&m.Stolen)
	p.Varint(&m.Victimized)
}

// equalRanges reports whether two range lists are identical.
func equalRanges(a, b []taskRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
