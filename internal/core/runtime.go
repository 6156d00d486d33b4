package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// Runtime is the real-time executor: one scheduler goroutine per hosted
// PE, VMI delay devices injecting the configured inter-cluster latencies,
// and an optional transport stack for PEs in other processes. It implements
// Backend.
type Runtime struct {
	topo  *topology.Topology
	prog  *Program
	opts  Options
	lbCfg *LBConfig // effective LB config: Options.LB override or prog.LB
	loc   *Locations
	pes   []*peState
	dly   *vmi.DelayDevice

	latencyFor func(src, dst int32) time.Duration
	pastDelay  vmi.SendFunc // rt.deliver, bound once: what follows the delay device

	// sink receives every scheduler event — the tracer, the metrics
	// adapter, and any extra sinks teed into one. nil when nothing is
	// configured.
	sink trace.Sink
	met  *coreMetrics // nil unless Options.Metrics is set

	// Per-PE cumulative counters (QD traffic excluded), read by the
	// quiescence protocol from each PE's own scheduler.
	sentByPE      []atomic.Int64
	processedByPE []atomic.Int64
	qd            qdRoot

	// msgSeq assigns causal trace IDs at routing time. Seeded with the
	// node number in the high 16 bits so IDs from different gridnode
	// processes never collide when their snapshots are merged.
	msgSeq atomic.Uint64

	exitOnce sync.Once
	exitCh   chan struct{}
	exitVal  any

	errMu  sync.Mutex
	runErr error

	// arriving buffers app messages addressed to elements that membership
	// recovery has re-homed onto a local PE but whose KindMember
	// construction has not run yet (see recovery.go).
	arrMu    sync.Mutex
	arriving map[ElemRef][]*Message

	start time.Time
	wg    sync.WaitGroup
}

type peState struct {
	id      int
	q       *Queue
	host    *PEHost
	reduce  *ReduceMgr
	lb      *LBMgr
	idle    atomic.Bool
	pending *PendingBundles // owned by this PE's execution context

	// curMsg is the causal ID of the message whose handler is executing on
	// this PE (0 between dispatches). Routes triggered from the handler
	// read it as the child's Parent; it is atomic because timer goroutines
	// (QD waves) route concurrently with the scheduler.
	curMsg atomic.Uint64
}

// NewRuntime builds a real-time runtime for prog on topo, configured by
// functional options (WithTrace, WithMetrics, WithCluster, …). All
// construction knobs — tracer, metrics registry, transport — bind here;
// there are no post-construction setters.
func NewRuntime(topo *topology.Topology, prog *Program, options ...Option) (*Runtime, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	var opts Options
	for _, o := range options {
		if o != nil {
			o(&opts)
		}
	}
	lbCfg := prog.LB
	if opts.LB != nil {
		lbCfg = opts.LB
		if err := validateLB(lbCfg, len(prog.Arrays)); err != nil {
			return nil, err
		}
	}
	if opts.Transport == nil {
		opts.PELo, opts.PEHi, opts.Node = 0, topo.NumPE(), 0
		opts.NodeOf = func(int) int { return 0 }
	} else {
		if opts.NodeOf == nil {
			return nil, fmt.Errorf("core: multi-process runtime needs NodeOf")
		}
		if opts.PELo < 0 || opts.PEHi > topo.NumPE() || opts.PELo >= opts.PEHi {
			return nil, fmt.Errorf("core: bad local PE range [%d,%d)", opts.PELo, opts.PEHi)
		}
	}
	rt := &Runtime{
		topo:   topo,
		prog:   prog,
		opts:   opts,
		lbCfg:  lbCfg,
		loc:    NewLocations(prog, topo.NumPE()),
		exitCh: make(chan struct{}),
		// The clock starts at construction so that transport goroutines
		// may observe it before Run is entered.
		start:         time.Now(),
		sentByPE:      make([]atomic.Int64, topo.NumPE()),
		processedByPE: make([]atomic.Int64, topo.NumPE()),
	}
	rt.msgSeq.Store(uint64(opts.Node) << 48)
	latencyFor := opts.LatencyFor
	if latencyFor == nil {
		latencyFor = func(src, dst int32) time.Duration {
			return topo.Latency(int(src), int(dst))
		}
	}
	rt.latencyFor = latencyFor
	rt.dly = vmi.NewDelayDevice(latencyFor)
	rt.pastDelay = rt.deliver
	tab := NewElemTable(prog)
	emit := func(m *Message) { rt.Route(m) }
	rt.pes = make([]*peState, opts.PEHi-opts.PELo)
	for i := range rt.pes {
		pe := opts.PELo + i
		ps := &peState{id: pe, q: NewQueue()}
		if opts.Bundle {
			ps.pending = NewPendingBundles()
		}
		ps.host = NewPEHost(rt, pe, tab)
		// Handler wall time is an element's measured load, which only a
		// load balancer reads.
		ps.host.MeasureWall = lbCfg != nil
		ps.reduce = NewReduceMgr(pe,
			func(a ArrayID) int { return rt.loc.LocalCount(a, pe) },
			func(a ArrayID) int { return rt.prog.Arrays[a].N },
			emit,
			func(a ArrayID, seq int64, v any) { ps.host.RunReduction(rt.prog, a, seq, v) },
		)
		if lbCfg != nil {
			ps.lb = NewLBMgr(pe, lbCfg, topo, rt.loc, ps.host, prog, emit)
		}
		rt.pes[i] = ps
	}
	// Element construction, deterministic order.
	if err := ConstructElements(prog, rt.loc, opts.PELo, opts.PEHi, func(pe int) *PEHost {
		return rt.pes[pe-opts.PELo].host
	}); err != nil {
		return nil, err
	}
	if lbCfg != nil {
		// Fail fast: every element of a balanced array must be able to
		// serialize through PUP, or a mid-run eviction (possibly bound for
		// another process over the wire) would fail long after start. The
		// error names the offending concrete type.
		if err := auditMigratable(lbCfg, rt.loc, opts.PELo, opts.PEHi, func(pe int) *PEHost {
			return rt.pes[pe-opts.PELo].host
		}); err != nil {
			return nil, err
		}
	}
	if opts.Membership != nil {
		// Bind before transport wiring: a table broadcast may arrive (and
		// trigger recovery) as soon as frames can be delivered.
		opts.Membership.bind(rt)
		for _, ps := range rt.pes {
			if ps.lb != nil {
				ps.lb.mem = opts.Membership
			}
		}
	}
	// Instrumentation before transport wiring: a bound transport may start
	// delivering frames (and hence emitting events) immediately.
	sinks := append([]trace.Sink{opts.Trace}, opts.Sinks...)
	sinks = append(sinks, rt.instrument(opts.Metrics))
	rt.sink = trace.Tee(sinks...)
	if opts.Transport != nil {
		// The transport's write path is asynchronous (coalesced); errors it
		// can no longer return from Send must fail the run, or a dead peer
		// leaves the surviving node waiting forever for messages that were
		// acknowledged into a doomed buffer.
		opts.Transport.Bind(rt.injectFrame, rt.fail)
	}
	return rt, nil
}

// validateLB checks an LB configuration supplied as a runtime override
// (program-carried configs are checked by Program.Validate).
func validateLB(cfg *LBConfig, numArrays int) error {
	if cfg.Strategy == nil {
		return fmt.Errorf("core: LB config has no strategy")
	}
	if len(cfg.Arrays) == 0 {
		return fmt.Errorf("core: LB config lists no arrays")
	}
	for _, id := range cfg.Arrays {
		if int(id) < 0 || int(id) >= numArrays {
			return fmt.Errorf("core: LB config references unknown array %d", id)
		}
	}
	return nil
}

// auditMigratable checks that every locally hosted element of every
// load-balanced array implements Migratable (i.e. has a PUP method), so
// migration failures surface at construction instead of mid-run. It is
// used by NewRuntime and exported executors via AuditMigratable.
func auditMigratable(cfg *LBConfig, loc *Locations, peLo, peHi int, hostOf func(pe int) *PEHost) error {
	for _, a := range cfg.Arrays {
		for pe := peLo; pe < peHi; pe++ {
			for _, ref := range loc.ElementsOn(a, pe) {
				s := hostOf(pe).slot(ref)
				if s == nil || s.ch == nil {
					continue // absent, or packed — which only a Migratable can be
				}
				if _, ok := s.ch.(Migratable); !ok {
					return fmt.Errorf("core: load-balanced element %v has type %T, which does not implement core.Migratable — add a PUP method so its state can be serialized for migration", ref, s.ch)
				}
			}
		}
	}
	return nil
}

// ConstructElements builds every element placed in [peLo, peHi) on its
// host, converting constructor panics (e.g. checkpoint-restore failures)
// into errors. It is exported for executor implementations.
func ConstructElements(prog *Program, loc *Locations, peLo, peHi int, hostOf func(pe int) *PEHost) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: element construction panicked: %v", r)
		}
	}()
	for ai := range prog.Arrays {
		spec := &prog.Arrays[ai]
		for idx := 0; idx < spec.N; idx++ {
			ref := ElemRef{Array: spec.ID, Index: idx}
			pe := int(loc.PEOf(ref))
			if pe >= peLo && pe < peHi {
				hostOf(pe).AddElement(ref, spec.New(idx))
			}
		}
	}
	return nil
}

// Backend implementation ---------------------------------------------------

// Route implements Backend: resolve the destination, apply WAN priority
// policy, and hand the message to the delay device (and, past it, either a
// local queue or the transport).
func (rt *Runtime) Route(m *Message) int32 {
	if m.Kind == KindApp {
		m.DstPE = rt.loc.PEOf(m.To)
	}
	dst := m.DstPE
	if rt.opts.PrioritizeWAN && m.Prio == 0 && rt.topo.CrossesWAN(int(m.SrcPE), int(m.DstPE)) {
		m.Prio = -1
	}
	if m.Kind != KindQD {
		rt.sentByPE[m.SrcPE].Add(1)
	}
	// Causal trace context: every routed message gets a node-unique ID;
	// its parent is whatever message the sending PE is currently
	// executing (0 for out-of-handler sends — timers, Run itself).
	if m.ID == 0 {
		m.ID = rt.msgSeq.Add(1)
	}
	if m.Parent == 0 {
		if rt.local(m.SrcPE) {
			m.Parent = rt.pes[int(m.SrcPE)-rt.opts.PELo].curMsg.Load()
		}
	}
	rt.recordSend(m)

	if rt.opts.Bundle && BundleEligible(m) {
		if rt.local(m.SrcPE) {
			// Held until the current handler completes; the scheduler
			// flushes after each dispatch.
			rt.pes[int(m.SrcPE)-rt.opts.PELo].pending.Add(m)
			return dst
		}
	}
	rt.transmit(m)
	return dst
}

// Post injects an application message from outside any handler — the
// entry point membership notifiers and the gateway's job submitter use.
// It is safe from any goroutine: it never touches the scheduler-owned
// bundle accumulators. A local destination is attributed to its own PE
// so the quiescence counters balance on that PE; a remote destination is
// attributed to this node's first PE — the frame must carry a truthful
// source, because the reliability layer routes acks by the frame's Src
// and a Src equal to the remote destination would bounce them back to
// the receiver itself (and a sent-count on a PE this node doesn't host
// would be invisible to that PE's quiescence probe reply).
func (rt *Runtime) Post(to ElemRef, entry EntryID, data any) {
	rt.PostTraced(to, entry, data, 0)
}

// PostTraced is Post with an explicit causal parent: the message's trace
// Parent is set to parent (0 means no parent, i.e. plain Post) and the
// assigned message ID is returned, so an external span — a gateway job's
// trace root, say — can adopt the injected message as a child and every
// handler it triggers links back through the injection. The ID is
// node-unique (high bits carry the node number), matching the IDs the
// scheduler assigns in-handler.
func (rt *Runtime) PostTraced(to ElemRef, entry EntryID, data any, parent uint64) uint64 {
	m := NewMessage()
	m.Kind, m.To, m.Entry, m.Data = KindApp, to, entry, data
	m.Bytes = payloadBytes(data)
	m.Parent = parent
	m.DstPE = rt.loc.PEOf(to)
	m.SrcPE = m.DstPE
	if !rt.local(m.DstPE) {
		m.SrcPE = int32(rt.opts.PELo)
	}
	rt.sentByPE[m.SrcPE].Add(1)
	id := rt.msgSeq.Add(1)
	m.ID = id
	rt.recordSend(m)
	rt.transmit(m) // m may be delivered and released before this returns
	return id
}

// recordSend emits the EvSend of a routed message. Like every event on the
// per-message path it reads the clock only when a sink will consume it.
func (rt *Runtime) recordSend(m *Message) {
	if rt.sink != nil {
		rt.sink.Record(trace.Event{PE: int(m.SrcPE), Kind: trace.EvSend, At: rt.Now(), MsgID: m.ID, Parent: m.Parent, MsgKind: byte(m.Kind), Arg1: int64(m.DstPE), Arg2: int64(m.Bytes)})
	}
}

// local reports whether this process hosts pe.
func (rt *Runtime) local(pe int32) bool {
	return int(pe) >= rt.opts.PELo && int(pe) < rt.opts.PEHi
}

// transmit sends a resolved message on its way: a message for a PE of this
// process over a zero-latency link goes straight into that PE's queue;
// anything else travels as a frame through the delay device to the queue
// or the wire.
func (rt *Runtime) transmit(m *Message) {
	delay := rt.latencyFor(m.SrcPE, m.DstPE)
	if delay <= 0 && rt.local(m.DstPE) {
		rt.enqueueLocal(m)
		return
	}
	f := framePool.Get().(*vmi.Frame)
	f.Src, f.Dst, f.Prio, f.Trace, f.Obj = m.SrcPE, m.DstPE, m.Prio, m.ID, m
	if m.Kind != KindApp {
		f.Class = vmi.ClassSystem
	}
	if err := rt.dly.Hold(f, rt.pastDelay, delay); err != nil {
		rt.fail(err)
	}
}

// flushBundles ships the messages the just-completed handler produced,
// one (possibly bundled) frame per destination PE.
func (rt *Runtime) flushBundles(ps *peState) {
	if ps.pending == nil || ps.pending.Empty() {
		return
	}
	for _, group := range ps.pending.Drain() {
		rt.transmit(MakeBundle(group))
	}
}

// framePool holds the frames that carry a message through the delay
// device: transmit takes one, deliver gives it back. The delay device owns
// a frame while it holds it, and the stack copies what it keeps before
// Send returns, so nothing else references a frame deliver has finished.
var framePool = sync.Pool{New: func() any { return new(vmi.Frame) }}

// deliver is the stage after the delay device: local enqueue or wire
// transport. It recycles f once either is done.
func (rt *Runtime) deliver(f *vmi.Frame) error {
	err := rt.ship(f)
	*f = vmi.Frame{}
	framePool.Put(f)
	return err
}

// ship moves the message f carries on: into a local queue, or encoded
// onto the wire.
func (rt *Runtime) ship(f *vmi.Frame) error {
	m := f.Obj.(*Message)
	if rt.local(f.Dst) {
		rt.enqueueLocal(m)
		return nil
	}
	if rt.Err() != nil {
		// The runtime is already failing; frames drained out of the delay
		// device during shutdown would each pay a full dial-retry cycle
		// against a possibly-dead peer, stalling Run's cleanup.
		return nil
	}
	// Serialize into a pooled buffer. The stack copies the body (into the
	// reliability layer's retransmit entry or the TCP device's coalescing
	// buffer) before Send returns, so it can be recycled as soon as the
	// send chain hands the frame back.
	buf := vmi.GetBuf(msgHeaderLen + m.Bytes)
	body, err := AppendMessage(buf[:0], m)
	if err != nil {
		vmi.PutBuf(buf)
		rt.fail(err)
		return err
	}
	f.Body = body
	f.Obj = nil
	releaseSent(m)
	err = rt.opts.Transport.Send(f)
	vmi.PutBuf(body)
	if err != nil {
		rt.fail(err)
		return err
	}
	return nil
}

// releaseSent recycles a message whose encoding has left for another
// process: an app message, or each app message of a bundle. Nothing else
// holds them once the frame body is built.
func releaseSent(m *Message) {
	switch m.Kind {
	case KindApp:
		ReleaseMessage(m)
	case KindBundle:
		for _, sub := range BundleMessages(m) {
			ReleaseMessage(sub)
		}
	}
}

func (rt *Runtime) enqueueLocal(m *Message) {
	if m.Kind == KindBundle {
		// A bundle's messages share an arrival; enqueue them in order.
		for _, sub := range BundleMessages(m) {
			rt.enqueueLocal(sub)
		}
		return
	}
	if rt.sink != nil {
		m.EnqueuedAt = rt.Now()
		rt.sink.Record(trace.Event{PE: int(m.DstPE), Kind: trace.EvEnqueue, At: m.EnqueuedAt, MsgID: m.ID, Parent: m.Parent, MsgKind: byte(m.Kind), Arg1: int64(m.SrcPE)})
	}
	i := int(m.DstPE) - rt.opts.PELo
	depth := rt.pes[i].q.Push(m)
	if rt.met != nil {
		rt.met.qDepthHW[i].SetMax(int64(depth))
	}
}

// Record implements Backend: libraries layered on the scheduler (AMPI
// block/wake, application step marks via Ctx) emit into the same sink the
// scheduler uses. The scheduler's own per-message events test rt.sink
// before building the event, so that an unobserved message does not read
// the clock to stamp an event nobody receives.
func (rt *Runtime) Record(ev trace.Event) {
	if rt.sink != nil {
		rt.sink.Record(ev)
	}
}

// injectFrame decodes a frame the transport stack delivered and enqueues
// its message on the local PE it addresses.
func (rt *Runtime) injectFrame(f *vmi.Frame) error {
	m, err := DecodeMessage(f.Body)
	if err != nil {
		rt.fail(err)
		return err
	}
	if !rt.local(m.DstPE) {
		err := fmt.Errorf("core: frame for PE %d arrived at node %d", m.DstPE, rt.opts.Node)
		rt.fail(err)
		return err
	}
	rt.enqueueLocal(m)
	return nil
}

// Now implements Backend: wall time since Run began.
func (rt *Runtime) Now() time.Duration { return time.Since(rt.start) }

// Epoch reports the wall-clock instant trace timestamps are relative to.
// Multi-process deployments record it in their trace snapshots so the
// analyzer can re-base events from different processes onto one axis.
func (rt *Runtime) Epoch() time.Time { return rt.start }

// SetEpoch re-bases the runtime clock. In-process multi-runtime harnesses
// call it with one shared instant after constructing every node, so that
// cross-node trace timestamps share a time base — element construction
// happens inside NewRuntime and would otherwise skew each node's epoch by
// its construction cost. Must be called before Run and before any frame
// is injected.
func (rt *Runtime) SetEpoch(t time.Time) { rt.start = t }

// Charge implements Backend. The real-time runtime measures handler wall
// time directly, so modeled charges are a no-op here.
func (rt *Runtime) Charge(time.Duration) {}

// NumPE implements Backend.
func (rt *Runtime) NumPE() int { return rt.topo.NumPE() }

// Topo implements Backend.
func (rt *Runtime) Topo() *topology.Topology { return rt.topo }

// ArrayN implements Backend.
func (rt *Runtime) ArrayN(a ArrayID) int { return rt.prog.Arrays[a].N }

// Locations exposes the runtime's location table. Every node of a
// multi-process run maintains a full copy (load-balancing rounds update
// all of them), so tests and tools can check where an element ended up —
// and that separate processes agree — after the run completes.
func (rt *Runtime) Locations() *Locations { return rt.loc }

// ExitWith implements Backend.
func (rt *Runtime) ExitWith(v any) {
	rt.exitOnce.Do(func() {
		rt.exitVal = v
		close(rt.exitCh)
	})
}

// Contribute implements Backend.
func (rt *Runtime) Contribute(_ ElemRef, pe int, a ArrayID, seq int64, v any, op ReduceOp) {
	rt.pes[pe-rt.opts.PELo].reduce.Contribute(a, seq, v, op)
}

// AtSync implements Backend.
func (rt *Runtime) AtSync(_ ElemRef, pe int) {
	ps := rt.pes[pe-rt.opts.PELo]
	if ps.lb == nil {
		panic("core: AtSync without an LB configuration")
	}
	ps.lb.ElementAtSync()
}

// Run -----------------------------------------------------------------------

func (rt *Runtime) fail(err error) {
	if err == nil {
		return
	}
	rt.errMu.Lock()
	if rt.runErr == nil {
		rt.runErr = err
	}
	rt.errMu.Unlock()
	rt.ExitWith(nil)
}

// Stop ends the run from outside (used by multi-process workers when the
// coordinator announces shutdown).
func (rt *Runtime) Stop() { rt.ExitWith(nil) }

// Err returns the first runtime error, if any.
func (rt *Runtime) Err() error {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	return rt.runErr
}

// Counters reports (sent, processed) message counts summed over this
// process's PEs, excluding quiescence-detection traffic.
func (rt *Runtime) Counters() (sent, processed int64) {
	for pe := range rt.sentByPE {
		sent += rt.sentByPE[pe].Load()
		processed += rt.processedByPE[pe].Load()
	}
	return sent, processed
}

// Run executes the program and returns the value passed to ExitWith. With
// RunToQuiescence it returns once no work remains. Run may only be called
// once.
func (rt *Runtime) Run() (any, error) {
	for _, ps := range rt.pes {
		rt.wg.Add(1)
		go rt.schedule(ps)
	}
	if rt.opts.Lifecycle.OnStart != nil {
		rt.opts.Lifecycle.OnStart()
	}
	if rt.opts.Node == 0 && rt.opts.PELo == 0 {
		rt.sentByPE[0].Add(1)
		rt.enqueueLocal(&Message{Kind: KindStart, SrcPE: 0, DstPE: 0, ID: rt.msgSeq.Add(1)})
		if rt.opts.RunToQuiescence {
			// Begin probing once the program has had a moment to start.
			time.AfterFunc(qdWaveInterval, func() {
				select {
				case <-rt.exitCh:
				default:
					rt.startQDWave()
				}
			})
		}
	}
	<-rt.exitCh

	// Shutdown: release delayed frames, then stop the schedulers.
	rt.dly.Close()
	for _, ps := range rt.pes {
		ps.q.Push(&Message{Kind: KindStop, Prio: math.MinInt32, DstPE: int32(ps.id)})
		ps.q.Close()
	}
	rt.wg.Wait()
	if rt.opts.Lifecycle.OnExit != nil {
		rt.opts.Lifecycle.OnExit(rt.exitVal, rt.Err())
	}
	return rt.exitVal, rt.Err()
}

// schedBatchSize bounds how many messages a scheduler drains per queue
// lock acquisition. Large enough to amortize the lock across a burst
// (e.g. a bundle's worth of ghost exchanges), small enough that a
// late-arriving prioritized message preempts within one batch.
const schedBatchSize = 32

// idleRecordMin is the smallest scheduler-idle gap worth a trace event:
// shorter waits are queue-lock noise, not comm-wait, and recording them
// would fill the rings with micro-idles.
const idleRecordMin = 50 * time.Microsecond

func (rt *Runtime) schedule(ps *peState) {
	defer rt.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			rt.fail(fmt.Errorf("core: PE %d handler panicked: %v", ps.id, r))
		}
	}()
	batch := make([]*Message, 0, schedBatchSize)
	idleCtr := rt.met.idleCounter(ps.id - rt.opts.PELo) // nil when metrics are off
	traceIdle := rt.sink != nil
	for {
		var idleFrom time.Time
		if idleCtr != nil || traceIdle {
			idleFrom = time.Now()
		}
		ps.idle.Store(true)
		batch = ps.q.PopBatch(batch[:0])
		ps.idle.Store(false)
		if idleCtr != nil || traceIdle {
			d := time.Since(idleFrom)
			if idleCtr != nil {
				idleCtr.Add(d.Nanoseconds())
			}
			if traceIdle && d >= idleRecordMin {
				rt.sink.Record(trace.Event{PE: ps.id, Kind: trace.EvIdle, At: idleFrom.Sub(rt.start), Arg1: d.Nanoseconds()})
			}
		}
		if len(batch) == 0 {
			return
		}
		for _, m := range batch {
			if m.Kind == KindStop {
				return
			}
			ps.curMsg.Store(m.ID)
			if rt.sink != nil {
				rt.sink.Record(trace.Event{PE: ps.id, Kind: trace.EvBegin, At: rt.Now(), MsgID: m.ID, MsgKind: byte(m.Kind), Arg1: int64(m.To.Array), Arg2: int64(m.To.Index)})
			}
			var err error
			kept := true // only a delivered app message goes back to the pool
			switch m.Kind {
			case KindApp:
				if !rt.parkIfArriving(ps, m) {
					kept, err = ps.host.DeliverApp(m)
				}
			case KindStart:
				ps.host.RunStart(rt.prog)
			case KindReduce:
				err = ps.reduce.HandlePartial(m)
			case KindLB:
				if ps.lb == nil {
					err = fmt.Errorf("core: PE %d received LB message without LB config", ps.id)
				} else {
					err = ps.lb.Handle(m)
				}
			case KindQD:
				err = rt.handleQD(ps, m)
			case KindMember:
				err = rt.handleMember(ps, m)
			default:
				err = fmt.Errorf("core: PE %d received unknown message kind %d", ps.id, m.Kind)
			}
			rt.flushBundles(ps)
			if rt.sink != nil {
				rt.sink.Record(trace.Event{PE: ps.id, Kind: trace.EvEnd, At: rt.Now(), MsgID: m.ID, MsgKind: byte(m.Kind)})
			}
			ps.curMsg.Store(0)
			if m.Kind != KindQD {
				rt.processedByPE[ps.id].Add(1)
			}
			if !kept {
				ReleaseMessage(m)
			}
			if err != nil {
				rt.fail(err)
				return
			}
		}
	}
}
