package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/trace"
)

// Agent defaults and bounds.
const (
	DefaultInterval = 500 * time.Millisecond

	// fullEvery: every fullEvery-th report is a full metrics snapshot,
	// which re-anchors a delta chain broken by a lost report.
	fullEvery = 4

	// retainSteps is how many step-overlap rows are kept and shipped.
	retainSteps = 8

	// maxSpans bounds the span-digest map; the oldest span is evicted.
	maxSpans = 8192

	// maxSpansPerReport bounds one report's span section so a burst of
	// trace activity spreads across ticks instead of producing one huge
	// control frame.
	maxSpansPerReport = 512

	// maxRetainedEvents bounds the agent's overlap event buffer for
	// workloads that never emit step marks (the taskfarm, say) — without
	// marks nothing would ever trim the buffer.
	maxRetainedEvents = 1 << 15

	// maxMarklessEvents is the tighter bound used when the buffer holds
	// no step marks at all: the single rolling-window row such a buffer
	// produces is an approximation either way, and profiling is O(buffer)
	// per recomputation.
	maxMarklessEvents = 1 << 13
)

// AgentConfig configures a telemetry agent. Registry and Send are
// required; everything else has a useful default or may be absent.
type AgentConfig struct {
	Node     int
	Registry *metrics.Registry
	Tracer   *trace.Tracer // nil: no span digests or overlap rows
	Epoch    time.Time     // the runtime's epoch (rt.Epoch()); trace times are relative to it
	NumPE    int           // PEs this process hosts (overlap profiling width)

	Interval time.Duration // reporting period; DefaultInterval if 0

	// Send ships one encoded report. It runs on the agent goroutine (or
	// the ReportOnce caller) and should be cheap; the vmi control path's
	// SendControl qualifies. A send error is counted and the report
	// dropped — telemetry is lossy by design.
	Send func([]byte) error
}

// spanState is a span digest being accumulated. dirty counts how many
// more reports should carry the span: it is set to resendFactor whenever
// an event lands, so each change is shipped on a couple of consecutive
// reports and survives a dropped control frame or two.
type spanState struct {
	span  Span
	dirty int
}

const resendFactor = 2

// Agent periodically folds the process's registry and tracer into
// compact reports and hands them to Send. One agent per process; all
// methods are safe for concurrent use.
type Agent struct {
	cfg AgentConfig

	mu       sync.Mutex
	seq      uint64
	lastSnap metrics.Snapshot
	cursor   *trace.Cursor
	spans    map[uint64]*spanState
	order    []uint64      // span insertion order, for oldest-first eviction
	events   []trace.Event // retained for step-overlap profiling
	readBuf  []trace.Event // scratch for cursor drains, reused across ticks

	// sendErrs counts the reports Send rejected, which are dropped; it
	// is exported as telemetry_send_errors_total.
	sendErrs atomic.Int64

	// Step-overlap rows are cached per step so each tick only profiles
	// the events still in the buffer — the open step plus one completed
	// step of flight context — instead of re-profiling retainSteps' worth
	// of history. Without the cache, StepOverlaps over a full retained
	// buffer dominated the tick (measured ~9 ms and ~13 MB per tick at
	// stencil event rates; see BenchmarkAgentTick).
	stepCache map[int64]StepOverlap
	stepOrder []int64 // ascending step numbers still cached
	hasMarks  bool    // buffer currently holds at least one step mark

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewAgent builds an agent. The tracer cursor starts at the tracer's
// current tail, so an agent attached mid-run reports only new activity.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: agent needs a metrics registry")
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("telemetry: agent needs a Send function")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	a := &Agent{
		cfg:       cfg,
		cursor:    cfg.Tracer.NewCursor(),
		spans:     make(map[uint64]*spanState),
		stepCache: make(map[int64]StepOverlap),
		stop:      make(chan struct{}),
	}
	cfg.Registry.CounterFunc("telemetry_send_errors_total", a.sendErrs.Load)
	return a, nil
}

// Start launches the reporting ticker. Stop flushes one final report and
// waits for the goroutine.
func (a *Agent) Start() {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		tick := time.NewTicker(a.cfg.Interval)
		defer tick.Stop()
		// A report Send rejects is counted in telemetry_send_errors_total;
		// the next one carries fresh data, so the error is not retried.
		for {
			select {
			case <-tick.C:
				_ = a.ReportOnce()
			case <-a.stop:
				_ = a.ReportOnce()
				return
			}
		}
	}()
}

// Stop flushes a final report and stops the ticker goroutine. Safe to
// call once, whether or not Start ran.
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.wg.Wait()
}

// ReportOnce builds and sends one report immediately: full metrics
// snapshot on the first and every fullEvery-th report, a trimmed delta
// otherwise, plus dirty span digests and the recent step-overlap rows.
// The ticker calls it; tests and the bench harness drive it manually.
func (a *Agent) ReportOnce() error {
	a.mu.Lock()
	defer a.mu.Unlock()

	a.seq++
	full := (a.seq-1)%fullEvery == 0
	snap := a.cfg.Registry.Snapshot()
	var series []metrics.Sample
	if full {
		series = snap.Series
	} else {
		series = trimDelta(snap.Sub(a.lastSnap), a.lastSnap)
	}
	a.lastSnap = snap

	a.foldNewEvents()
	spans := a.takeDirtySpans()
	now := time.Since(a.cfg.Epoch)
	steps := a.stepRows(now, full)

	r := &Report{
		Node:        int32(a.cfg.Node),
		Seq:         a.seq,
		Full:        full,
		EpochUnixNs: a.cfg.Epoch.UnixNano(),
		HorizonNs:   int64(now),
		Dropped:     a.cfg.Tracer.Dropped() + a.cursor.Skipped(),
		Metrics:     series,
		Spans:       spans,
		Steps:       steps,
	}
	buf, err := AppendReport(nil, r)
	if err != nil {
		return err
	}
	if err := a.cfg.Send(buf); err != nil {
		a.sendErrs.Add(1)
		return err
	}
	return nil
}

// trimDelta drops series a delta does not need to carry: counters and
// histograms that did not move, and gauges whose reading matches what
// the collector already holds. The collector's chained-delta protocol
// makes the omission safe — an unchanged series stays correct on its
// side, and any gap forces a wait for the next full snapshot anyway.
func trimDelta(delta, prev metrics.Snapshot) []metrics.Sample {
	type key struct{ name, labels string }
	prevGauge := make(map[key]int64)
	for _, s := range prev.Series {
		if s.Kind == metrics.KindGauge.String() {
			prevGauge[key{s.Name, s.Labels}] = s.Value
		}
	}
	out := delta.Series[:0]
	for _, s := range delta.Series {
		if s.Kind == metrics.KindGauge.String() {
			if v, ok := prevGauge[key{s.Name, s.Labels}]; ok && v == s.Value {
				continue
			}
		} else if s.Value == 0 && s.Count == 0 && s.Sum == 0 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// foldNewEvents drains the tracer cursor, folds message-lifecycle events
// into span digests, and appends everything to the overlap buffer.
func (a *Agent) foldNewEvents() {
	if a.cfg.Tracer == nil {
		return
	}
	a.readBuf = a.cursor.ReadNew(a.readBuf[:0])
	for _, ev := range a.readBuf {
		a.foldSpan(ev)
	}
	a.events = append(a.events, a.readBuf...)
	a.trimEvents()
}

// foldSpan merges one trace event into its span digest.
func (a *Agent) foldSpan(ev trace.Event) {
	if ev.MsgID == 0 {
		return
	}
	switch ev.Kind {
	case trace.EvSend, trace.EvEnqueue, trace.EvBegin, trace.EvEnd:
	default:
		return
	}
	st := a.spans[ev.MsgID]
	if st == nil {
		if len(a.spans) >= maxSpans {
			a.evictOldestSpan()
		}
		st = &spanState{span: Span{ID: ev.MsgID}}
		a.spans[ev.MsgID] = st
		a.order = append(a.order, ev.MsgID)
	}
	sp := &st.span
	switch ev.Kind {
	case trace.EvSend:
		sp.SendNs = int64(ev.At)
		if ev.Parent != 0 {
			sp.Parent = ev.Parent
		}
		sp.Kind = ev.MsgKind
	case trace.EvEnqueue:
		sp.EnqueueNs = int64(ev.At)
		if ev.Parent != 0 && sp.Parent == 0 {
			sp.Parent = ev.Parent
		}
		if sp.BeginNs == 0 {
			sp.PE = int32(ev.PE)
		}
	case trace.EvBegin:
		sp.BeginNs = int64(ev.At)
		sp.PE = int32(ev.PE)
		if sp.Kind == 0 {
			sp.Kind = ev.MsgKind
		}
	case trace.EvEnd:
		sp.EndNs = int64(ev.At)
	}
	st.dirty = resendFactor
}

// evictOldestSpan drops the oldest span still tracked, compacting the
// order list past already-evicted IDs.
func (a *Agent) evictOldestSpan() {
	for len(a.order) > 0 {
		id := a.order[0]
		a.order = a.order[1:]
		if _, ok := a.spans[id]; ok {
			delete(a.spans, id)
			return
		}
	}
}

// takeDirtySpans collects up to maxSpansPerReport dirty digests,
// decrements their resend budget, and evicts digests that are both
// complete and fully resent.
func (a *Agent) takeDirtySpans() []Span {
	var out []Span
	kept := a.order[:0]
	for _, id := range a.order {
		st, ok := a.spans[id]
		if !ok {
			continue
		}
		if st.dirty > 0 && len(out) < maxSpansPerReport {
			out = append(out, st.span)
			st.dirty--
		}
		if st.dirty == 0 && st.span.EndNs != 0 {
			delete(a.spans, id)
			continue
		}
		kept = append(kept, id)
	}
	a.order = kept
	return out
}

// trimEvents bounds the overlap buffer: keep the open step plus one
// completed step of history (flights sent late in a step land in the
// next one, so the completed step's final profile needs its
// predecessor's sends), and never more than maxRetainedEvents. Older
// steps live on as cached rows in stepCache, not as events.
func (a *Agent) trimEvents() {
	var markAts []time.Duration
	for _, ev := range a.events {
		if ev.Kind == trace.EvNote && ev.Note == "step" {
			markAts = append(markAts, ev.At)
		}
	}
	a.hasMarks = len(markAts) > 0
	if n := len(markAts); n >= 2 {
		cut := markAts[n-2]
		kept := a.events[:0]
		for _, ev := range a.events {
			if ev.At >= cut {
				kept = append(kept, ev)
			}
		}
		a.events = kept
	}
	bound := maxRetainedEvents
	if !a.hasMarks {
		bound = maxMarklessEvents
	}
	if len(a.events) > bound {
		a.events = append(a.events[:0], a.events[len(a.events)-bound:]...)
	}
}

// stepRows profiles the retained events, folds the rows into the
// per-step cache, and returns the newest retainSteps rows. Rows are
// replace-on-arrival at the collector and a step is re-profiled on
// every tick until the buffer trims past it, so a partially complete
// step's row is self-correcting and its last recomputation — with a
// full step of flight context still in the buffer — is the one that
// sticks.
// Markless buffers yield one rolling-window row; that approximation is
// recomputed only on full reports (the marked path is cheap, the
// markless one is O(buffer) with nothing to cache against).
func (a *Agent) stepRows(now time.Duration, full bool) []StepOverlap {
	if a.cfg.Tracer == nil || a.cfg.NumPE <= 0 {
		return nil
	}
	if len(a.events) > 0 && (a.hasMarks || full) {
		for _, r := range trace.StepOverlaps(a.events, a.cfg.NumPE, now) {
			t := r.Totals()
			if _, seen := a.stepCache[r.Step]; !seen {
				a.stepOrder = append(a.stepOrder, r.Step)
			}
			a.stepCache[r.Step] = StepOverlap{
				Step:      r.Step,
				ComputeNs: int64(t.Busy),
				MaskedNs:  int64(t.Masked),
				ExposedNs: int64(t.Exposed),
			}
		}
	}
	if n := len(a.stepOrder); n > retainSteps {
		for _, s := range a.stepOrder[:n-retainSteps] {
			delete(a.stepCache, s)
		}
		a.stepOrder = append(a.stepOrder[:0], a.stepOrder[n-retainSteps:]...)
	}
	if len(a.stepOrder) == 0 {
		return nil
	}
	out := make([]StepOverlap, 0, len(a.stepOrder))
	for _, s := range a.stepOrder {
		out = append(out, a.stepCache[s])
	}
	return out
}
