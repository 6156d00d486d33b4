package taskfarm

import (
	"gridmdo/internal/core"
)

// PUP implements core.Migratable. Workers rebuild identity and parameters
// from the program; only the batch-boundary clock travels (it feeds the
// assignment-wait histogram, and a migrated worker must not report its
// migration gap as dispatcher starvation).
func (w *worker) PUP(p *core.PUP) {
	p.Duration(&w.lastDone)
}

// PUP implements core.Migratable. The shard's whole scheduling state
// travels: the pending deque, per-worker grant/completion tallies, steal
// counters, the PRNG state (so a restored shard continues the same
// victim sequence — checkpoint/restore never forks the random stream),
// and the completions folded since the last progress report.
func (s *shard) PUP(p *core.PUP) {
	pupRanges(p, &s.pending)
	// A serve farm's task space is open-ended (Tasks == 0), so its
	// pending-range count has no static bound to check against.
	if p.Unpacking() && !s.p.Serve && len(s.pending) > s.p.Tasks {
		p.Errorf("taskfarm: restore shard %d: %d pending ranges for a %d-task farm", s.id, len(s.pending), s.p.Tasks)
		return
	}
	p.Int64(&s.avail)
	p.Ints(&s.out)
	p.Int32s(&s.perW)
	p.Int64(&s.granted)
	p.Int64(&s.grants)
	p.Int64(&s.steals)
	p.Int64(&s.stealFails)
	p.Int64(&s.stolenIn)
	p.Int64(&s.victimized)
	p.Uint64(&s.rng)
	p.Int(&s.fails)
	p.Bool(&s.stealing)
	// Elastic bookkeeping: the outstanding-range FIFOs must survive a
	// migration or a node's death — they are exactly what gets re-queued
	// when a worker's node dies.
	if p.Unpacking() {
		s.outRanges = make([][]taskRange, len(s.out))
	}
	for i := range s.outRanges {
		pupRanges(p, &s.outRanges[i])
		if p.Unpacking() && !s.p.Serve && len(s.outRanges[i]) > s.p.Tasks {
			p.Errorf("taskfarm: restore shard %d: %d outstanding ranges for worker %d", s.id, len(s.outRanges[i]), s.wLo+i)
			return
		}
	}
	ng := len(s.grantable)
	p.Int(&ng)
	if p.Unpacking() {
		if ng != 0 && ng != len(s.out) {
			p.Errorf("taskfarm: restore shard %d: grantable sized %d, shard owns %d workers", s.id, ng, len(s.out))
			return
		}
		s.grantable = nil
		if ng > 0 {
			s.grantable = make([]bool, ng)
		}
	}
	for i := range s.grantable {
		p.Bool(&s.grantable[i])
	}
	p.Int32s(&s.drainNode)
	if p.Unpacking() {
		ns := s.p.shards()
		owned := (s.id+1)*s.p.Workers/ns - s.id*s.p.Workers/ns
		if len(s.out) != owned || len(s.perW) != owned {
			p.Errorf("taskfarm: restore shard %d: tallies sized %d/%d, shard owns %d workers",
				s.id, len(s.out), len(s.perW), owned)
		}
		if s.drainNode != nil && len(s.drainNode) != owned {
			p.Errorf("taskfarm: restore shard %d: drain marks sized %d, shard owns %d workers",
				s.id, len(s.drainNode), owned)
		}
	}
	// The unreported fold goes last, so a blob packed without it fails
	// to unpack with a truncation error instead of misparsing.
	core.PUPVarint(p, &s.foldDone)
	p.Float64(&s.foldSum)
	p.Uint64(&s.foldCheck)
	if p.Unpacking() && s.foldDone < 0 {
		p.Errorf("taskfarm: restore shard %d: %d unreported completions", s.id, s.foldDone)
	}
}

// PUP implements core.Migratable. The root is plain aggregation state.
func (r *root) PUP(p *core.PUP) {
	shards := r.shards
	p.Int(&shards)
	p.Duration(&r.started)
	p.Duration(&r.makespan)
	p.Int(&r.done)
	p.Float64(&r.sum)
	p.Uint64(&r.check)
	p.Int(&r.reports)
	p.Ints(&r.perW)
	p.Ints(&r.perShard)
	p.Int(&r.steals)
	p.Int(&r.stealFails)
	p.Int(&r.stolen)
	if p.Unpacking() {
		if shards != r.shards {
			p.Errorf("taskfarm: restore root: checkpoint has %d shards, program wants %d", shards, r.shards)
			return
		}
		if r.perW != nil && len(r.perW) != r.workers {
			p.Errorf("taskfarm: restore root: per-worker tally has %d entries, want %d", len(r.perW), r.workers)
		}
		if r.perShard != nil && len(r.perShard) != r.shards {
			p.Errorf("taskfarm: restore root: per-shard tally has %d entries, want %d", len(r.perShard), r.shards)
		}
	}
}

var (
	_ core.Migratable = (*worker)(nil)
	_ core.Migratable = (*shard)(nil)
	_ core.Migratable = (*root)(nil)
)
