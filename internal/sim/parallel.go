package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Conservative parallel execution. The engine repeats, until quiescence
// or a stop:
//
//  1. Find W, the earliest pending event time across all shards.
//  2. Let every shard with events before Wend = W + lookahead process
//     them, concurrently. Messages between shards carry at least the
//     lookahead of modeled delay, so nothing a shard does in [W, Wend)
//     can schedule work for another shard inside the same window — the
//     shards are provably independent until the barrier. A shard whose
//     rewind log is full stops early; running less of a window is always
//     safe, and it picks up from there in the next one.
//  3. Barrier: hand buffered cross-shard deliveries to their target
//     event queues, then take F, the earliest position (ordKey) among the
//     shards' next events. Everything ordered before F has run on every
//     shard and no stop can come before it, so rewind records and staged
//     trace events ordered before F are final; later ones are kept, since
//     a shard cut short may yet stop the run before them.
//
// Within a shard, events run in the same deterministic (at, kind, key)
// order the sequential engine uses globally, and event keys are drawn
// from per-PE counters owned by the executing shard, so every PE
// observes the identical event sequence regardless of the number of
// shards or workers. The one wrinkle is stopping: a shard may reach
// ExitWith (or an error) while sibling shards, unaware, process events
// that come later in the deterministic order — in this window or, ahead
// of a shard cut short, in earlier ones. Once a stop candidate exists,
// shards run only the events ordered before it, and the stop settles at
// the first barrier where none remains (F is past it): every shard then
// rewinds — the rewind log restores per-PE clocks and counters for
// events ordered after the stop — and drops their staged trace events, so
// the externally visible state (exit value, virtual times, statistics,
// traces) is exactly the sequential engine's. Chare memory mutated by
// rewound events is not restored.

// rewindCap bounds each shard's rewind log: it caps the events a shard
// runs per window, so wide windows cost barriers rather than memory
// (EXPERIMENTS.md §19).
const rewindCap = 4096

// rewindLogs recycles rewind logs across engines, so a run does not
// fault in fresh log memory that the runtime then returns to the OS.
var rewindLogs = sync.Pool{New: func() any { return new([rewindCap]rewindRec) }}

func (e *Engine) runParallel() {
	var pool *workerPool
	if e.workers > 1 {
		pool = newWorkerPool(e.workers)
		defer pool.close()
	}
	defer func() {
		for _, s := range e.shards {
			if s.rewind != nil {
				rewindLogs.Put((*[rewindCap]rewindRec)(s.rewind[:rewindCap]))
				s.rewind = nil
			}
		}
	}()
	active := make([]*shard, 0, len(e.shards))
	for {
		// Find the earliest pending event and the shards with work near it.
		w := time.Duration(-1)
		nonEmpty := 0
		for _, s := range e.shards {
			if s.events.len() == 0 {
				continue
			}
			nonEmpty++
			if at := s.events.nextAt(); w < 0 || at < w {
				w = at
			}
		}
		if w < 0 {
			return // natural quiescence: no events anywhere
		}
		var wend time.Duration
		switch {
		case len(e.shards) == 1:
			wend = maxDuration // one shard: nothing to synchronize with
		case nonEmpty == 1:
			// Only one shard holds events: every other shard's earliest
			// possible event is a delivery from this window, at ≥ w +
			// lookahead — so the lone shard can safely run one lookahead
			// further before a response could reach it.
			wend = w + 2*e.lookahead
		default:
			wend = w + e.lookahead
		}
		if wend < w {
			wend = maxDuration // overflow far in virtual time
		}
		active = active[:0]
		for _, s := range e.shards {
			if s.events.len() > 0 && s.events.nextAt() < wend {
				active = append(active, s)
			}
		}
		if pool == nil || len(active) == 1 {
			for _, s := range active {
				s.runWindow(wend)
			}
		} else {
			pool.run(active, wend)
		}
		e.windows++
		if e.barrier() {
			return
		}
	}
}

const maxDuration = time.Duration(1<<63 - 1)

// barrier hands over the window's cross-shard deliveries, settles a stop
// once nothing ordered before it remains, and otherwise discards the
// rewind records and flushes the trace events that have become final. It
// reports whether the run stopped.
func (e *Engine) barrier() bool {
	for _, s := range e.shards {
		for _, ev := range s.outbox {
			t := e.shards[e.shardOf[ev.pe]]
			t.events.push(ev)
		}
		s.outbox = s.outbox[:0]
	}
	// f is the earliest position any shard can still run, past every
	// event when none remain. Every future event is ordered after f, so
	// no stop can come before it.
	f := ordKey{at: maxDuration, kind: evExec, key: math.MaxUint64}
	for _, s := range e.shards {
		if s.events.len() > 0 {
			top := s.events.peek()
			if k := s.pos(&top); k.less(f) {
				f = k
			}
		}
	}
	if e.opts.MaxEvents > 0 && e.overBudget(f) {
		return true
	}
	if stopK, stopped := e.stopKeySnapshot(); stopped && stopK.less(f) {
		for _, s := range e.shards {
			s.rewindTo(stopK, false)
			s.flushStaged(stopK, false)
		}
		return true
	}
	for _, s := range e.shards {
		n := s.final(f)
		e.settled += int64(n)
		s.rewind = s.rewind[:copy(s.rewind, s.rewind[n:])]
		s.flushFinal(f)
	}
	return false
}

// overBudget enforces MaxEvents as the sequential engine does: the run
// stops at the (MaxEvents+1)-th event in processing order, which is
// counted but never dispatched. The check waits until that event is final
// (ordered before f) and wins over any stop candidate not ordered before
// it, since the sequential engine would have stopped there first.
func (e *Engine) overBudget(f ordKey) bool {
	rank := e.opts.MaxEvents - e.settled // index among the newly final events
	var n int64
	for _, s := range e.shards {
		n += int64(s.final(f))
	}
	if n <= rank {
		return false
	}
	type finalRec struct {
		key ordKey
		s   *shard
	}
	recs := make([]finalRec, 0, n)
	for _, s := range e.shards {
		for _, r := range s.rewind[:s.final(f)] {
			recs = append(recs, finalRec{r.key, s})
		}
	}
	slices.SortFunc(recs, func(a, b finalRec) int {
		if a.key.less(b.key) {
			return -1
		}
		return 1 // keys are unique
	})
	stop := recs[rank]
	if k, ok := e.stopKeySnapshot(); ok && k.less(stop.key) {
		return false // an earlier stop settles on its own
	}
	e.stopMu.Lock()
	e.exitCand.have = false
	e.errCand.have, e.errCand.key = true, stop.key
	e.errCand.err = fmt.Errorf("sim: event budget %d exhausted at t=%v", e.opts.MaxEvents, stop.key.at)
	e.stopMu.Unlock()
	for _, s := range e.shards {
		s.rewindTo(stop.key, true)
		s.flushStaged(stop.key, true)
	}
	stop.s.now = stop.key.at
	stop.s.eventCount++
	return true
}

// runWindow processes this shard's events strictly before wend, in
// deterministic order, until its rewind log is full. When a stop
// candidate appears anywhere in the engine, the shard stops short of
// events ordered at or after it — candidates only ever move earlier, so
// anything skipped is ordered after the final stop and would be rewound
// anyway.
func (s *shard) runWindow(wend time.Duration) {
	e := s.eng
	if s.rewind == nil {
		s.rewind = rewindLogs.Get().(*[rewindCap]rewindRec)[:0]
	}
	for s.events.len() > 0 && len(s.rewind) < rewindCap {
		if s.events.nextAt() >= wend {
			return
		}
		if e.stopFlag.Load() {
			top := s.events.peek()
			if stopK, ok := e.stopKeySnapshot(); ok && !s.pos(&top).less(stopK) {
				return
			}
		}
		ev := s.events.pop()
		s.processEvent(ev)
	}
}

// pos stamps ev's position in the sequential processing order (see
// ordKey), were it the next event this shard runs.
func (s *shard) pos(ev *event) ordKey {
	if ev.kind == evDeliver && ev.at != s.execAt {
		return ordKey{at: ev.at, kind: evDeliver, key: ev.key}
	}
	return ordKey{at: ev.at, kind: evExec, key: uint64(s.id)<<40 | uint64(s.eventCount)}
}

// processEvent is the parallel-mode event step: snapshot for rewind,
// advance the clock, dispatch.
func (s *shard) processEvent(ev event) {
	e := s.eng
	ps := e.pes[ev.pe]
	s.curKey = s.pos(&ev)
	s.rewind = append(s.rewind, rewindRec{
		key:       s.curKey,
		pe:        ev.pe,
		now:       s.now,
		busyUntil: ps.busyUntil,
		busyTotal: ps.busyTotal,
		processed: ps.processed,
		sendSeq:   ps.sendSeq,
		events:    s.eventCount,
		msgs:      s.msgCount,
		frames:    s.frameCount,
	})
	s.now = ev.at
	if ev.kind == evExec {
		s.execAt = ev.at
	}
	s.eventCount++
	s.dispatch(ev)
}

// undone reports whether a stop at stopK undoes the event at k: every
// event ordered after the stop, and — incl, for a budget stop, whose
// event the sequential engine counts but never runs — the stop's own.
func undone(k, stopK ordKey, incl bool) bool {
	return k.greater(stopK) || incl && k == stopK
}

// final reports how many of the rewind log's records are ordered before
// f. The log is in position order.
func (s *shard) final(f ordKey) int {
	n, _ := slices.BinarySearchFunc(s.rewind, f, func(r rewindRec, f ordKey) int {
		if r.key.less(f) {
			return -1
		}
		return 1
	})
	return n
}

// rewindTo undoes the per-PE clocks and shard counters of every event the
// stop undoes, walking the rewind log backwards so the oldest record's
// snapshot wins.
func (s *shard) rewindTo(stopK ordKey, incl bool) {
	e := s.eng
	for i := len(s.rewind) - 1; i >= 0; i-- {
		rec := &s.rewind[i]
		if !undone(rec.key, stopK, incl) {
			break
		}
		ps := e.pes[rec.pe]
		ps.busyUntil = rec.busyUntil
		ps.busyTotal = rec.busyTotal
		ps.processed = rec.processed
		ps.sendSeq = rec.sendSeq
		s.now = rec.now
		s.eventCount = rec.events
		s.msgCount = rec.msgs
		s.frameCount = rec.frames
	}
	s.rewind = s.rewind[:0]
}

// flushStaged writes this shard's staged trace events into the tracer,
// dropping any recorded by events the stop undoes.
func (s *shard) flushStaged(stopK ordKey, incl bool) {
	e := s.eng
	if e.opts.Trace == nil {
		return
	}
	for i, ev := range s.staged {
		if !undone(s.stagedKeys[i], stopK, incl) {
			e.opts.Trace.Record(ev)
		}
	}
	s.staged = s.staged[:0]
	s.stagedKeys = s.stagedKeys[:0]
}

// flushFinal writes the staged trace events recorded by events ordered
// before f and keeps the rest. The flush happens on the barrier
// goroutine, one shard at a time, and staged order is deterministic per
// shard, so the tracer's per-PE rings end up bit-identical to a
// sequential run's.
func (s *shard) flushFinal(f ordKey) {
	e := s.eng
	if e.opts.Trace == nil {
		return
	}
	n := 0
	for n < len(s.staged) && s.stagedKeys[n].less(f) {
		e.opts.Trace.Record(s.staged[n])
		n++
	}
	s.staged = s.staged[:copy(s.staged, s.staged[n:])]
	s.stagedKeys = s.stagedKeys[:copy(s.stagedKeys, s.stagedKeys[n:])]
}

// workerPool runs shard windows on a fixed set of goroutines.
type workerPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
}

type poolJob struct {
	s    *shard
	wend time.Duration
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan poolJob, n)}
	for i := 0; i < n; i++ {
		go func() {
			for job := range p.jobs {
				job.s.runWindow(job.wend)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes one window across the active shards and waits for all of
// them — the barrier that makes the next window's hand-offs safe.
func (p *workerPool) run(active []*shard, wend time.Duration) {
	p.wg.Add(len(active))
	for _, s := range active {
		p.jobs <- poolJob{s: s, wend: wend}
	}
	p.wg.Wait()
}

func (p *workerPool) close() { close(p.jobs) }
