package core

import (
	"strconv"

	"gridmdo/internal/metrics"
	"gridmdo/internal/trace"
)

// coreMetrics holds the scheduler's pre-registered metric handles, one
// slot per hosted PE (indexed by pe - PELo). Handles are nil when the
// corresponding registry call returned nil, and every method on them is
// nil-safe, so the scheduler updates them unconditionally.
type coreMetrics struct {
	enqueued  []*metrics.Counter   // core_msgs_enqueued_total{pe}
	idleNs    []*metrics.Counter   // core_idle_nanos_total{pe}
	qDepthHW  []*metrics.Gauge     // core_queue_depth_high_water{pe}
	handlerNs []*metrics.Histogram // core_handler_nanos{pe}
	beginAt   []paddedNanos        // per-PE open handler start time
}

// paddedNanos is a cache-line-padded int64. Each slot is written and read
// only by its own PE's scheduler goroutine (via EvBegin/EvEnd), so no
// atomics are needed; the padding keeps neighbouring PEs off the same
// line.
type paddedNanos struct {
	v int64
	_ [56]byte
}

// idleCounter returns the idle-time counter for local PE slot i, or nil
// when metrics are off — the scheduler hoists this lookup out of its loop
// and skips the clock reads entirely on nil.
func (m *coreMetrics) idleCounter(i int) *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.idleNs[i]
}

// instrument registers the runtime's series on reg and returns the event
// sink that keeps them current. Cumulative flow counts that the runtime
// already tracks (sentByPE, processedByPE, queue depth) are exported as
// Func metrics read at collection time; only the series with no existing
// source (enqueue count, handler time, idle time, depth high-water) get
// live handles updated from the scheduler.
func (rt *Runtime) instrument(reg *metrics.Registry) trace.Sink {
	if reg == nil {
		return nil
	}
	n := len(rt.pes)
	m := &coreMetrics{
		enqueued:  make([]*metrics.Counter, n),
		idleNs:    make([]*metrics.Counter, n),
		qDepthHW:  make([]*metrics.Gauge, n),
		handlerNs: make([]*metrics.Histogram, n),
		beginAt:   make([]paddedNanos, n),
	}
	for i, ps := range rt.pes {
		pe := metrics.L("pe", strconv.Itoa(ps.id))
		id := ps.id
		reg.CounterFunc("core_msgs_sent_total", func() int64 { return rt.sentByPE[id].Load() }, pe)
		reg.CounterFunc("core_msgs_processed_total", func() int64 { return rt.processedByPE[id].Load() }, pe)
		q := ps.q
		reg.GaugeFunc("core_queue_depth", func() int64 { return int64(q.Len()) }, pe)
		m.enqueued[i] = reg.Counter("core_msgs_enqueued_total", pe)
		m.idleNs[i] = reg.Counter("core_idle_nanos_total", pe)
		m.qDepthHW[i] = reg.Gauge("core_queue_depth_high_water", pe)
		m.handlerNs[i] = reg.Histogram("core_handler_nanos", metrics.DurationBuckets, pe)
	}
	// Load-balancing progress, exported from the protocol root (PE 0).
	// Meaningful only on the node hosting PE 0, but registered wherever an
	// LBMgr exists so snapshots stay uniform across nodes. The node label
	// keeps the nodes of an in-process cluster, which share one registry,
	// from replacing the root's series with their own zeros.
	node := metrics.L("node", strconv.Itoa(rt.opts.Node))
	if lb := rt.pes[0].lb; lb != nil {
		reg.CounterFunc("core_lb_rounds_total", func() int64 { return int64(lb.Rounds()) }, node)
		reg.CounterFunc("core_lb_moves_total", func() int64 { return int64(lb.TotalMoves()) }, node)
	}
	rt.dly.Instrument(reg, node)
	rt.met = m
	return &metricsSink{m: m, lo: rt.opts.PELo}
}

// metricsSink adapts scheduler trace events into metric updates — the
// metrics half of the shared trace.Sink surface, teed next to the tracer
// so the scheduler emits each event exactly once.
type metricsSink struct {
	m  *coreMetrics
	lo int
}

// Record implements trace.Sink. Lock-free: a couple of atomic adds per
// event, no allocations.
func (s *metricsSink) Record(ev trace.Event) {
	i := ev.PE - s.lo
	if i < 0 || i >= len(s.m.enqueued) {
		return
	}
	switch ev.Kind {
	case trace.EvEnqueue:
		s.m.enqueued[i].Inc()
	case trace.EvBegin:
		s.m.beginAt[i].v = int64(ev.At)
	case trace.EvEnd:
		s.m.handlerNs[i].Observe(int64(ev.At) - s.m.beginAt[i].v)
	}
}
