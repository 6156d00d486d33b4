// Package sim is GridMDO's virtual-time executor: a deterministic
// discrete-event simulator that runs unmodified core.Programs against a
// modeled machine. It plays the role Charm++'s BigSim emulator plays for
// the real Charm++ runtime — handlers execute real Go code (so
// application numerics are exact), but time advances according to a cost
// model: handlers charge modeled execution time via Ctx.Charge, and
// message delivery times come from the topology's link model
// (per-message overhead + latency + size/bandwidth). Every message is
// one modeled frame: the engine neither bundles nor coalesces sends.
//
// Because the simulated machine's speed is configured rather than
// inherited from the host, the engine reproduces the paper's 2–64
// Itanium-processor experiments faithfully on any development machine,
// and two runs of the same program are event-for-event identical.
//
// Two executors share one event model. New builds the sequential engine:
// a single event queue popped in order, the reference semantics.
// NewParallel builds the conservative parallel engine: PEs are divided
// into shards of whole clusters, each with its own event queue, executed by
// a worker pool in time windows bounded by the lookahead (the minimum
// delay of a link between shards — every cross-shard interaction is a
// modeled message with nonzero delay, so within one window the shards
// cannot affect each other). Both engines order events by the same
// deterministic (time, kind, key) comparator, where keys are drawn from
// per-PE counters, so the parallel engine replays the identical per-PE
// event sequence and produces bit-identical results — see DESIGN.md §13.
package sim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// Options configures an Engine.
type Options struct {
	// Trace, if non-nil, receives events stamped with virtual time.
	Trace *trace.Tracer

	// MaxEvents aborts runs that process more than this many events.
	// Zero means no bound.
	MaxEvents int64
}

type evKind uint8

const (
	evDeliver evKind = iota // message arrives at a PE's queue
	evExec                  // PE begins executing its next queued message
)

// event ordering is fully deterministic: (at, kind, key), with deliveries
// before executions at the same instant. Deliver keys come from per-PE
// send counters (each PE's execution sequence is deterministic, so the
// keys are too, independent of shard interleaving); exec keys are the PE
// id (at most one exec event per PE is pending at a time). This replaces
// a global push-order tie-break, which only a sequential executor could
// reproduce.
type event struct {
	at   time.Duration
	key  uint64
	kind evKind
	pe   int32
	m    *core.Message
}

// eventHeap is a binary min-heap of events in (at, kind, key) order. The
// keys are unique, so the pop order is a pure function of the set pushed.
// push and pop sift the concrete slice directly: the standard library's
// heap would box every 32-byte event into an interface value on the way in
// and out.
type eventHeap []event

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.key < o.key
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !s[j].before(&s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // release the message
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1 // left child
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// eventQueue is a shard's pending events: a binary heap plus an exec
// lane. Nearly every exec event is due at the instant of the delivery that
// scheduled it — the instant of the event just popped — so those skip the
// heap: the lane holds them as a bitmap over the shard's PEs (an exec's
// key is its PE, and a PE has at most one pending exec). peek and pop
// compare the heap's top with the lane's lowest PE under the one (at,
// kind, key) order, which is total since keys are unique, so the pop
// sequence is a pure function of the set of events pushed, wherever each
// one waited.
type eventQueue struct {
	heap eventHeap
	now  time.Duration // the instant of the last event popped; the lane's instant
	lane []uint64      // bit i set: PE peLo+i has an exec pending at now
	peLo int
	n    int // lane events
	lo   int // no set bit in lane[:lo]
}

func newEventQueue(peLo, peHi int) eventQueue {
	return eventQueue{now: -1, lane: make([]uint64, (peHi-peLo+63)/64), peLo: peLo}
}

func (q *eventQueue) len() int { return len(q.heap) + q.n }

// nextAt is the instant of the earliest pending event; the queue is
// non-empty. Events are never pushed before the instant of the last pop,
// so a non-empty lane is due first.
func (q *eventQueue) nextAt() time.Duration {
	if q.n > 0 {
		return q.now
	}
	return q.heap[0].at
}

func (q *eventQueue) push(ev event) {
	if ev.kind != evExec || ev.at != q.now {
		q.heap.push(ev)
		return
	}
	i := int(ev.pe) - q.peLo
	w := i >> 6
	q.lane[w] |= 1 << (i & 63)
	if q.n == 0 || w < q.lo {
		q.lo = w
	}
	q.n++
}

// laneTop is the lane's earliest event; the lane is non-empty.
func (q *eventQueue) laneTop() event {
	for q.lane[q.lo] == 0 {
		q.lo++
	}
	pe := q.peLo + q.lo<<6 + bits.TrailingZeros64(q.lane[q.lo])
	return event{at: q.now, key: uint64(pe), kind: evExec, pe: int32(pe)}
}

// peek returns the earliest pending event; the queue is non-empty.
func (q *eventQueue) peek() event {
	if q.n == 0 {
		return q.heap[0]
	}
	ev := q.laneTop()
	if len(q.heap) > 0 && q.heap[0].before(&ev) {
		return q.heap[0]
	}
	return ev
}

// pop removes and returns the earliest pending event; the queue is
// non-empty.
func (q *eventQueue) pop() event {
	var ev event
	if q.n > 0 {
		ev = q.laneTop()
	}
	if q.n == 0 || len(q.heap) > 0 && q.heap[0].before(&ev) {
		ev = q.heap.pop()
	} else {
		q.lane[q.lo] &^= 1 << ((int(ev.pe) - q.peLo) & 63)
		q.n--
	}
	q.now = ev.at
	return ev
}

// ordKey is an event's position in the sequential engine's processing
// order, used to compare stop candidates (exit, error) across shards and
// to rewind past them. Time orders first. Within one instant the
// sequential engine first pops the deliveries already queued for it, by
// key, and then each shard's executions — and the zero-delay deliveries
// those push, which the queue orders *before* the running event — shard
// after shard, since every PE of a lower shard has a lower exec key. So a
// parallel shard stamps a delivery {at, evDeliver, key} until it has run
// an exec at that instant, and everything after {at, evExec, shard<<40 |
// events processed}; see shard.pos. The sequential engine, whose one
// stream needs no comparison, stamps the event's own (at, kind, key).
type ordKey struct {
	at   time.Duration
	kind evKind
	key  uint64
}

func (k ordKey) less(o ordKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.kind != o.kind {
		return k.kind < o.kind
	}
	return k.key < o.key
}

func (k ordKey) greater(o ordKey) bool { return o.less(k) }

type simPE struct {
	id          int
	q           core.MsgQueue
	host        *core.PEHost
	reduce      *core.ReduceMgr
	lb          *core.LBMgr
	busyUntil   time.Duration
	execPending bool
	busyTotal   time.Duration
	processed   int64

	// sendSeq drives this PE's deterministic event keys and message IDs;
	// only the shard owning the PE ever touches it.
	sendSeq uint64
}

// rewindRec snapshots the engine state an event is about to mutate, so a
// parallel window that raced past an exit (or error) can restore the
// exact per-PE clocks and counters the sequential engine would have
// stopped with. One record is appended per event; a barrier discards the
// records ordered before every shard's next event, which no stop can
// reach any more.
type rewindRec struct {
	key                  ordKey
	pe                   int32
	now                  time.Duration
	busyUntil, busyTotal time.Duration
	processed            int64
	sendSeq              uint64
	events, msgs, frames int64
}

// shard owns a contiguous range of PEs: their event queue, message
// queues, hosts, and the execution state of whichever handler is running.
// It implements core.Backend, so each PE's host routes sends and reads the
// clock through its own shard without any cross-shard locking on the hot
// path. The sequential engine is the one-shard special case.
type shard struct {
	eng        *Engine
	id         int
	peLo, peHi int

	events eventQueue
	now    time.Duration

	// current handler execution state
	inHandler bool
	curPE     int
	execStart time.Duration
	charged   time.Duration
	curMsg    uint64 // causal ID of the message being executed (0 between)
	curKey    ordKey // deterministic order key of the event being processed

	// parallel-mode state: cross-shard sends buffered until the window
	// barrier, trace events staged so a stop can filter raced-past
	// history, the rewind log (see rewindRec; its capacity is fixed at
	// rewindCap), and the instant of the last exec run (see pos).
	outbox     []event
	staged     []trace.Event
	stagedKeys []ordKey
	rewind     []rewindRec
	execAt     time.Duration

	eventCount int64
	msgCount   int64
	frameCount int64
}

// Engine is the virtual-time executor. Run may only be called once; after
// it returns the engine is quiescent and Stats may be used.
type Engine struct {
	topo *topology.Topology
	prog *core.Program
	opts Options
	loc  *core.Locations
	pes  []*simPE

	shards    []*shard
	shardOf   []int32 // PE -> owning shard
	parallel  bool
	workers   int
	lookahead time.Duration
	windows   int64 // parallel windows run, one barrier each
	settled   int64 // events whose rewind records barriers have discarded

	// bootSeq keys events originated outside any PE (the start message).
	bootSeq uint64

	now time.Duration

	// Stop candidates: the first (in deterministic event order) exit and
	// error seen. Shards race to offer candidates under stopMu; the
	// smallest key wins, exactly as if the sequential engine had stopped
	// there. stopFlag makes the common no-stop check a cheap atomic load.
	stopMu   sync.Mutex
	stopFlag atomic.Bool
	exitCand struct {
		have bool
		key  ordKey
		val  any
	}
	errCand struct {
		have bool
		key  ordKey
		err  error
	}

	exited  bool
	exitVal any
	err     error
}

// New builds the sequential virtual-time engine for prog on topo.
func New(topo *topology.Topology, prog *core.Program, opts Options) (*Engine, error) {
	return newEngine(topo, prog, opts, 1, false)
}

// NewParallel builds the conservative parallel engine: workers goroutines
// execute PE shards in lookahead-bounded time windows. Results (exit
// value, virtual times, checksums, traces) are bit-identical to the
// sequential engine's. On a machine of several clusters a shard is a run
// of whole clusters. Some modeled delay is needed on every link between
// shards, unless the machine has a single PE.
func NewParallel(topo *topology.Topology, prog *core.Program, opts Options, workers int) (*Engine, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sim: NewParallel needs at least one worker, got %d", workers)
	}
	return newEngine(topo, prog, opts, workers, true)
}

func newEngine(topo *topology.Topology, prog *core.Program, opts Options, workers int, parallel bool) (*Engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		topo:     topo,
		prog:     prog,
		opts:     opts,
		loc:      core.NewLocations(prog, topo.NumPE()),
		parallel: parallel,
		workers:  workers,
	}
	numPE := topo.NumPE()
	bounds := []int{0, numPE}
	if parallel {
		bounds = shardBounds(topo, workers)
	}
	e.shards = make([]*shard, len(bounds)-1)
	e.shardOf = make([]int32, numPE)
	for i := range e.shards {
		s := &shard{eng: e, id: i, peLo: bounds[i], peHi: bounds[i+1], events: newEventQueue(bounds[i], bounds[i+1])}
		if parallel {
			s.outbox = make([]event, 0, 16)
			s.execAt = -1
		}
		e.shards[i] = s
		for pe := s.peLo; pe < s.peHi; pe++ {
			e.shardOf[pe] = int32(i)
		}
	}
	if parallel {
		e.lookahead = topo.LookaheadAcross(func(pe int) int { return int(e.shardOf[pe]) })
		if len(e.shards) > 1 && e.lookahead <= 0 {
			return nil, fmt.Errorf("sim: parallel execution needs positive lookahead, but topology %v has a zero-delay link between shards; give every link some latency or overhead", topo)
		}
	}
	e.pes = make([]*simPE, numPE)
	tab := core.NewElemTable(prog)
	for pe := 0; pe < numPE; pe++ {
		sh := e.shards[e.shardOf[pe]]
		ps := &simPE{id: pe}
		ps.host = core.NewPEHost(sh, pe, tab)
		pe := pe
		emit := func(m *core.Message) { sh.Route(m) }
		ps.reduce = core.NewReduceMgr(pe,
			func(a core.ArrayID) int { return e.loc.LocalCount(a, pe) },
			func(a core.ArrayID) int { return e.prog.Arrays[a].N },
			emit,
			func(a core.ArrayID, seq int64, v any) { ps.host.RunReduction(e.prog, a, seq, v) },
		)
		if prog.LB != nil {
			ps.lb = core.NewLBMgr(pe, prog.LB, topo, e.loc, ps.host, prog, emit)
		}
		e.pes[pe] = ps
	}
	if err := core.ConstructElements(prog, e.loc, 0, numPE, func(pe int) *core.PEHost {
		return e.pes[pe].host
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// shardBounds divides the PEs into the parallel engine's shards: shard i
// owns PEs [b[i], b[i+1]). More shards than workers keeps the per-shard
// event queues small and lets the pool balance uneven windows; beyond ~4×
// there is only bookkeeping. A machine of several clusters gets at most
// one shard per cluster, each a contiguous run of whole clusters balanced
// by PE count, so only inter-cluster links cross shards and the lookahead
// is the WAN's; a single cluster is split evenly.
func shardBounds(topo *topology.Topology, workers int) []int {
	numPE, nc := topo.NumPE(), topo.NumClusters()
	n := max(16, 4*workers)
	size := func(c int) int { return len(topo.PEs(topology.ClusterID(c))) }
	b := make([]int, 1, n+1)
	if nc > 1 {
		// Clusters number their PEs contiguously (topology.New), so a run
		// of clusters is a PE range. Shard i takes at least one cluster,
		// then more while the next one's midpoint is within its share of
		// the PEs and enough clusters remain for the shards after it.
		n = min(n, nc)
		c, pe := 0, 0
		for i := 0; i < n; i++ {
			target := (i + 1) * numPE / n
			for {
				pe += size(c)
				c++
				if c >= nc-(n-1-i) || pe+size(c)/2 > target {
					break
				}
			}
			b = append(b, pe)
		}
		return b
	}
	n = min(n, numPE)
	base, rem := numPE/n, numPE%n
	for i := 0; i < n; i++ {
		pe := b[i] + base
		if i < rem {
			pe++
		}
		b = append(b, pe)
	}
	return b
}

// nextKey draws the next deterministic event key (and message ID) for a
// send originated by pe; pe < 0 is the engine itself (the start message).
// Only the shard owning pe may call this for it, so no synchronization is
// needed and the sequence each PE draws is identical in both engines.
func (e *Engine) nextKey(pe int) uint64 {
	if pe < 0 {
		e.bootSeq++
		return e.bootSeq
	}
	ps := e.pes[pe]
	ps.sendSeq++
	return uint64(pe+1)<<40 | ps.sendSeq
}

func (s *shard) owns(pe int32) bool { return int(pe) >= s.peLo && int(pe) < s.peHi }

// Backend implementation ---------------------------------------------------

// Route implements core.Backend: deliveries are scheduled at
// send-time + link delay, where send time is the virtual instant within
// the running handler at which the send occurs (execution start plus time
// charged so far).
func (s *shard) Route(m *core.Message) int32 {
	e := s.eng
	if m.Kind == core.KindApp {
		m.DstPE = e.loc.PEOf(m.To)
	}
	dst := m.DstPE
	s.msgCount++
	src := int(m.SrcPE)
	if s.inHandler {
		src = s.curPE
	}
	if m.ID == 0 {
		m.ID = e.nextKey(src)
	}
	if m.Parent == 0 && s.inHandler {
		m.Parent = s.curMsg
	}
	if e.opts.Trace != nil {
		s.record(trace.Event{PE: int(m.SrcPE), Kind: trace.EvSend, At: s.Now(), MsgID: m.ID, Parent: m.Parent, MsgKind: byte(m.Kind), Arg1: int64(m.DstPE), Arg2: int64(m.Bytes)})
	}
	// src's key counter stamps the event (< 0 for the bootstrap message).
	link := e.topo.LinkBetween(int(m.SrcPE), int(m.DstPE))
	s.push(event{at: s.Now() + link.Delay(m.Bytes), key: e.nextKey(src), kind: evDeliver, pe: m.DstPE, m: m})
	return dst
}

// Multicast implements core.Backend: member by member, so that a
// multicast costs the modeled sends it always has.
func (s *shard) Multicast(src int, members []core.ElemRef, entry core.EntryID, data any) int {
	return core.SendEach(s, src, members, entry, data)
}

// push routes an event to its PE's shard: onto the local heap, or — for
// another shard, in parallel mode — into the outbox to be distributed at
// the window barrier. Cross-shard events always carry at least the
// lookahead of delay, so they land beyond the current window and the
// deferred hand-off cannot reorder anything.
func (s *shard) push(ev event) {
	if !s.eng.parallel || s.owns(ev.pe) {
		s.events.push(ev)
		return
	}
	s.outbox = append(s.outbox, ev)
}

// Now implements core.Backend: virtual time at the current execution
// point.
func (s *shard) Now() time.Duration {
	if s.inHandler {
		return s.execStart + s.charged
	}
	return s.now
}

// Charge implements core.Backend: modeled execution time accumulates into
// the running handler and advances the PE's clock when it completes.
// Charged durations are expressed for the reference machine and scaled by
// the executing PE's speed factor, so heterogeneous clusters run the same
// application code at different rates.
func (s *shard) Charge(d time.Duration) {
	if s.inHandler && d > 0 {
		if sp := s.eng.topo.PESpeed(s.curPE); sp != 1 {
			d = time.Duration(float64(d) / sp)
		}
		s.charged += d
	}
}

// Topo implements core.Backend.
func (s *shard) Topo() *topology.Topology { return s.eng.topo }

// ArrayN implements core.Backend.
func (s *shard) ArrayN(a core.ArrayID) int { return s.eng.prog.Arrays[a].N }

// ExitWith implements core.Backend. In a parallel run several shards may
// reach exits within one window; the one earliest in deterministic event
// order wins, exactly as if the sequential engine had stopped there.
func (s *shard) ExitWith(v any) {
	s.eng.offerExit(s.curKey, v)
}

// Contribute implements core.Backend.
func (s *shard) Contribute(_ core.ElemRef, pe int, a core.ArrayID, seq int64, v any, op core.ReduceOp) {
	s.eng.pes[pe].reduce.Contribute(a, seq, v, op)
}

// AtSync implements core.Backend.
func (s *shard) AtSync(_ core.ElemRef, pe int) {
	if s.eng.pes[pe].lb == nil {
		panic("sim: AtSync without an LB configuration")
	}
	s.eng.pes[pe].lb.ElementAtSync()
}

// Record implements core.Backend: application step marks (Ctx.Mark) land
// in the same tracer as scheduler events, stamped with virtual time by the
// caller.
func (s *shard) Record(ev trace.Event) { s.record(ev) }

// record emits a trace event. The sequential engine writes straight into
// the tracer; a parallel shard stages events with the key of the event
// being processed, and the barrier flushes them — dropping any recorded
// by events that raced past a stop — so the per-PE trace streams are
// bit-identical to a sequential run's.
func (s *shard) record(ev trace.Event) {
	e := s.eng
	if e.opts.Trace == nil {
		return
	}
	if !e.parallel {
		e.opts.Trace.Record(ev)
		return
	}
	s.staged = append(s.staged, ev)
	s.stagedKeys = append(s.stagedKeys, s.curKey)
}

// Stop candidates -----------------------------------------------------------

func (e *Engine) offerExit(k ordKey, v any) {
	e.stopMu.Lock()
	if !e.exitCand.have || k.less(e.exitCand.key) {
		e.exitCand.have, e.exitCand.key, e.exitCand.val = true, k, v
	}
	e.stopMu.Unlock()
	e.stopFlag.Store(true)
}

func (e *Engine) offerErr(k ordKey, err error) {
	e.stopMu.Lock()
	if !e.errCand.have || k.less(e.errCand.key) {
		e.errCand.have, e.errCand.key, e.errCand.err = true, k, err
	}
	e.stopMu.Unlock()
	e.stopFlag.Store(true)
}

// stopKeySnapshot reports the earliest stop candidate so far, if any.
func (e *Engine) stopKeySnapshot() (ordKey, bool) {
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	switch {
	case e.exitCand.have && e.errCand.have:
		if e.errCand.key.less(e.exitCand.key) {
			return e.errCand.key, true
		}
		return e.exitCand.key, true
	case e.exitCand.have:
		return e.exitCand.key, true
	case e.errCand.have:
		return e.errCand.key, true
	}
	return ordKey{}, false
}

// resolveStop finalizes exited/exitVal/err from the candidates: only
// candidates at or before the earliest stop survive (an error after the
// winning exit never happened, and vice versa). A candidate pair from the
// same event keeps both, matching the sequential engine's behavior when
// one handler both exits and fails.
func (e *Engine) resolveStop() {
	stop, ok := e.stopKeySnapshot()
	if !ok {
		return
	}
	if e.exitCand.have && !e.exitCand.key.greater(stop) {
		e.exited, e.exitVal = true, e.exitCand.val
	}
	if e.errCand.have && !e.errCand.key.greater(stop) && e.err == nil {
		e.err = e.errCand.err
	}
}

// Event loop ----------------------------------------------------------------

// Run executes the program to completion: until ExitWith is called, an
// error or budget stops the run, or no events remain (natural
// quiescence). It returns the exit value and the virtual time at which
// the run ended.
func (e *Engine) Run() (any, time.Duration, error) {
	startKey := e.nextKey(-1)
	s0 := e.shards[e.shardOf[0]]
	s0.events.push(event{at: 0, key: startKey, kind: evDeliver, pe: 0, m: &core.Message{Kind: core.KindStart, ID: startKey}})
	if e.parallel {
		e.runParallel()
	} else {
		e.runSequential()
	}
	e.resolveStop()
	// The run ends when the last handler's charged time elapses, which may
	// be after the final event was dequeued.
	for _, s := range e.shards {
		if s.now > e.now {
			e.now = s.now
		}
	}
	for _, ps := range e.pes {
		if ps.busyUntil > e.now {
			e.now = ps.busyUntil
		}
	}
	return e.exitVal, e.now, e.err
}

func (e *Engine) runSequential() {
	s := e.shards[0]
	for s.events.len() > 0 && !e.stopFlag.Load() {
		ev := s.events.pop()
		s.now = ev.at
		s.curKey = ordKey{at: ev.at, kind: ev.kind, key: ev.key}
		s.eventCount++
		if e.opts.MaxEvents > 0 && s.eventCount > e.opts.MaxEvents {
			e.offerErr(s.curKey, fmt.Errorf("sim: event budget %d exhausted at t=%v", e.opts.MaxEvents, s.now))
			break
		}
		s.dispatch(ev)
	}
}

func (s *shard) dispatch(ev event) {
	switch ev.kind {
	case evDeliver:
		s.deliver(ev)
	case evExec:
		s.exec(ev)
	}
}

func (s *shard) deliver(ev event) {
	s.frameCount++
	e := s.eng
	ps := e.pes[ev.pe]
	ev.m.EnqueuedAt = s.now
	ps.q.Push(ev.m)
	if e.opts.Trace != nil {
		s.record(trace.Event{PE: int(ev.pe), Kind: trace.EvEnqueue, At: s.now, MsgID: ev.m.ID, Parent: ev.m.Parent, MsgKind: byte(ev.m.Kind), Arg1: int64(ev.m.SrcPE)})
	}
	if !ps.execPending {
		at := s.now
		if ps.busyUntil > at {
			at = ps.busyUntil
		}
		ps.execPending = true
		s.push(event{at: at, key: uint64(ev.pe), kind: evExec, pe: ev.pe})
	}
}

func (s *shard) exec(ev event) {
	e := s.eng
	ps := e.pes[ev.pe]
	ps.execPending = false
	m := ps.q.Pop()
	if m == nil {
		return
	}
	s.inHandler = true
	s.curPE = ps.id
	s.execStart = s.now
	s.charged = 0
	s.curMsg = m.ID
	if e.opts.Trace != nil {
		s.record(trace.Event{PE: ps.id, Kind: trace.EvBegin, At: s.now, MsgID: m.ID, MsgKind: byte(m.Kind), Arg1: int64(m.To.Array), Arg2: int64(m.To.Index)})
	}

	var err error
	kept := true // only a delivered app message goes back to the pool
	switch m.Kind {
	case core.KindApp:
		kept, err = ps.host.DeliverApp(m)
	case core.KindStart:
		ps.host.RunStart(e.prog)
	case core.KindReduce:
		err = ps.reduce.HandlePartial(m)
	case core.KindLB:
		if ps.lb == nil {
			err = fmt.Errorf("sim: PE %d received LB message without LB config", ps.id)
		} else {
			err = ps.lb.Handle(m)
		}
	default:
		err = fmt.Errorf("sim: PE %d received unknown message kind %d", ps.id, m.Kind)
	}

	cost := s.charged
	s.inHandler = false
	s.curMsg = 0
	if m.Kind == core.KindApp {
		ps.host.AddLoad(m.To, cost)
	}
	ps.busyUntil = s.now + cost
	ps.busyTotal += cost
	ps.processed++
	if e.opts.Trace != nil {
		s.record(trace.Event{PE: ps.id, Kind: trace.EvEnd, At: ps.busyUntil, MsgID: m.ID, MsgKind: byte(m.Kind)})
	}
	if !kept {
		core.ReleaseMessage(m)
	}
	if err != nil {
		e.offerErr(s.curKey, err)
		return
	}
	if ps.q.Len() > 0 {
		ps.execPending = true
		s.push(event{at: ps.busyUntil, key: uint64(ps.id), kind: evExec, pe: int32(ps.id)})
	}
}

// Stats ----------------------------------------------------------------------

// Stats summarizes a completed run.
type Stats struct {
	VirtualTime time.Duration   // final virtual clock
	Events      int64           // events processed
	Messages    int64           // messages routed
	Frames      int64           // messages delivered (one frame each)
	PEBusy      []time.Duration // charged execution time per PE
	Processed   []int64         // handlers executed per PE

	Shards    int           // event shards (1 = sequential)
	Workers   int           // worker goroutines (1 = sequential)
	Lookahead time.Duration // synchronization window: min delay between shards (0 = sequential)
	Windows   int64         // parallel windows run, one barrier each (0 = sequential)
}

// Stats reports run statistics; call after Run.
func (e *Engine) Stats() Stats {
	s := Stats{
		VirtualTime: e.now,
		PEBusy:      make([]time.Duration, len(e.pes)),
		Processed:   make([]int64, len(e.pes)),
		Shards:      len(e.shards),
		Workers:     e.workers,
		Lookahead:   e.lookahead,
		Windows:     e.windows,
	}
	for _, sh := range e.shards {
		s.Events += sh.eventCount
		s.Messages += sh.msgCount
		s.Frames += sh.frameCount
	}
	for i, ps := range e.pes {
		s.PEBusy[i] = ps.busyTotal
		s.Processed[i] = ps.processed
	}
	return s
}
