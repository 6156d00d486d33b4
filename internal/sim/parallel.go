package sim

import (
	"fmt"
	"sync"
	"time"
)

// Conservative parallel execution. The engine repeats, until quiescence
// or a stop:
//
//  1. Find W, the earliest pending event time across all shards.
//  2. Let every shard with events before Wend = W + lookahead process
//     them, concurrently. Cross-PE messages carry at least the lookahead
//     of modeled delay, so nothing a shard does in [W, Wend) can schedule
//     work for another shard inside the same window — the shards are
//     provably independent until the barrier.
//  3. Barrier: hand buffered cross-shard deliveries to their target
//     heaps, flush staged trace events, and settle any stop candidates.
//
// Within a shard, events run in the same deterministic (at, kind, key)
// order the sequential engine uses globally, and event keys are drawn
// from per-PE counters owned by the executing shard, so every PE
// observes the identical event sequence regardless of the number of
// shards or workers. The one wrinkle is stopping: a shard may reach
// ExitWith (or an error) while sibling shards, unaware, process events
// that come later in the deterministic order. Those shards rewind —
// every event appends a rewindRec snapshot, and the barrier restores
// per-PE clocks and counters for events ordered after the stop — and
// their staged trace events are dropped, so the externally visible state
// (exit value, virtual times, statistics, traces) is exactly the
// sequential engine's. (Chare memory mutated by rewound events is not
// restored; see Engine.Checkpoint.)

func (e *Engine) runParallel() {
	var pool *workerPool
	if e.workers > 1 {
		pool = newWorkerPool(e.workers)
		defer pool.close()
	}
	active := make([]*shard, 0, len(e.shards))
	for {
		// Find the earliest pending event and the shards with work near it.
		w := time.Duration(-1)
		nonEmpty := 0
		for _, s := range e.shards {
			if len(s.events) == 0 {
				continue
			}
			nonEmpty++
			if w < 0 || s.events[0].at < w {
				w = s.events[0].at
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
			if len(s.events) > 0 && s.events[0].at < wend {
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
		// Barrier. Settle stops first: once a stop candidate exists, no
		// event ordered before it remains unprocessed (shards only skip
		// events ordered at or after a candidate), and all later windows
		// only move forward in time — so the earliest candidate is final.
		if stopK, stopped := e.stopKeySnapshot(); stopped {
			for _, s := range e.shards {
				s.rewindTo(stopK)
				s.flushStaged(stopK, true)
			}
			return
		}
		for _, s := range e.shards {
			s.flushStaged(ordKey{}, false)
			s.rewind = s.rewind[:0]
			for _, ev := range s.outbox {
				t := e.shards[e.shardOf[ev.pe]]
				t.events.push(ev)
			}
			s.outbox = s.outbox[:0]
		}
		if e.opts.MaxEvents > 0 {
			var total int64
			for _, s := range e.shards {
				total += s.eventCount
			}
			if total > e.opts.MaxEvents {
				// Checked at window granularity; the sequential engine
				// stops mid-window, so the parallel engine may process a
				// bounded overshoot before noticing. It is a runaway
				// guard, not a reproducible cut.
				e.stopMu.Lock()
				if !e.errCand.have {
					e.errCand.have = true
					e.errCand.key = ordKey{at: w}
					e.errCand.err = fmt.Errorf("sim: event budget %d exhausted at t=%v", e.opts.MaxEvents, w)
				}
				e.stopMu.Unlock()
				e.stopFlag.Store(true)
				return
			}
		}
	}
}

const maxDuration = time.Duration(1<<63 - 1)

// runWindow processes this shard's events strictly before wend, in
// deterministic order. When a stop candidate appears anywhere in the
// engine, the shard stops short of events ordered at or after it —
// candidates only ever move earlier, so anything skipped is ordered
// after the final stop and would be rewound anyway.
func (s *shard) runWindow(wend time.Duration) {
	e := s.eng
	for len(s.events) > 0 {
		top := &s.events[0]
		if top.at >= wend {
			return
		}
		if e.stopFlag.Load() {
			k := ordKey{at: top.at, kind: top.kind, key: top.key}
			if stopK, ok := e.stopKeySnapshot(); ok && !k.less(stopK) {
				return
			}
		}
		ev := s.events.pop()
		s.processEvent(ev)
	}
}

// processEvent is the parallel-mode event step: snapshot for rewind,
// advance the clock, enforce the virtual-time budget, dispatch.
func (s *shard) processEvent(ev event) {
	e := s.eng
	ps := e.pes[ev.pe]
	s.rewind = append(s.rewind, rewindRec{
		key:       ordKey{at: ev.at, kind: ev.kind, key: ev.key},
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
	s.curKey = ordKey{at: ev.at, kind: ev.kind, key: ev.key}
	s.eventCount++
	if e.opts.MaxVirtual > 0 && ev.at > e.opts.MaxVirtual {
		// The first event past the bound, in deterministic order, wins
		// the error — identical to the sequential engine. The event
		// itself is counted but not dispatched, also identical.
		e.offerErr(s.curKey, fmt.Errorf("sim: virtual time bound %v exceeded", e.opts.MaxVirtual))
		return
	}
	s.dispatch(ev)
}

// rewindTo undoes the per-PE clocks and shard counters of every event
// ordered after the stop, walking the rewind log backwards so the oldest
// record's snapshot wins.
func (s *shard) rewindTo(stopK ordKey) {
	e := s.eng
	for i := len(s.rewind) - 1; i >= 0; i-- {
		rec := &s.rewind[i]
		if !rec.key.greater(stopK) {
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

// flushStaged writes this window's staged trace events into the tracer,
// dropping (when stopped) any recorded by events ordered after the stop.
// The flush happens on the barrier goroutine, one shard at a time, and
// staged order is deterministic per shard, so the tracer's per-PE rings
// end up bit-identical to a sequential run's.
func (s *shard) flushStaged(stopK ordKey, stopped bool) {
	e := s.eng
	if e.opts.Trace == nil {
		return
	}
	for i, ev := range s.staged {
		if stopped && s.stagedKeys[i].greater(stopK) {
			continue
		}
		e.opts.Trace.Record(ev)
	}
	s.staged = s.staged[:0]
	s.stagedKeys = s.stagedKeys[:0]
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
