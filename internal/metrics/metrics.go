// Package metrics is GridMDO's runtime observability registry: counters,
// gauges, and fixed-bucket histograms that every layer — core scheduler,
// VMI devices, task farm, gateway — registers at construction time and
// updates from its hot paths with plain atomic operations. The design
// splits cost by phase:
//
//   - Registration (Counter/Gauge/Histogram/…Func) allocates and takes the
//     registry lock; it happens while a runtime or device chain is built.
//   - Updates (Inc, Add, Set, Observe) are lock-free atomics on
//     pre-registered handles and perform zero allocations, so instrumented
//     hot paths cost the same with metrics on as a bare atomic counter.
//   - Collection (WriteProm, Snapshot) walks the registry under its lock
//     and additionally invokes Func metrics, which may themselves lock
//     their owner (e.g. vmi.Reliable's stats mutex) — scrape-time cost
//     only.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, and registration methods on a nil *Registry
// return nil handles. A component therefore instruments unconditionally
// and the "metrics disabled" configuration costs one predicted branch per
// update, mirroring the trace package's nil-*Tracer convention.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric for exposition.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Label is one name dimension, rendered into the series identity at
// registration time so updates never touch strings.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. The struct is padded to a
// cache line so per-PE counter arrays do not false-share.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the exposition to stay meaningful).
// Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark. Nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution of int64 observations. Bucket
// upper bounds are set at registration and never change; Observe is a
// linear scan over at most a couple dozen bounds followed by three atomic
// adds — no locks, no allocations.
type Histogram struct {
	bounds  []int64        // ascending upper bounds; implicit +Inf bucket after
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; 0 on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Standard bucket layouts, chosen once so series from different runs and
// devices line up.
var (
	// BytesBuckets spans frame and batch sizes from a bare header to the
	// coalescing buffer cap.
	BytesBuckets = []int64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	// DurationBuckets spans handler and idle intervals, in nanoseconds,
	// from 1µs to 1s.
	DurationBuckets = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
)

// entry is one registered series.
type entry struct {
	name   string
	labels string // rendered {k="v",…} or ""
	kind   Kind

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() int64 // Func metrics; replaces c/g
}

func (e *entry) id() string { return e.name + e.labels }

// Registry holds the registered series of one process. The zero value is
// not usable; call NewRegistry. A nil *Registry is a valid "metrics off"
// registry: registration returns nil handles and collection returns
// nothing.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byID    map[string]*entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*entry)}
}

// renderLabels builds the canonical {k="v",…} suffix. Labels are sorted by
// key so the same logical series always has one identity.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the existing entry for (name, labels) or installs a new
// one built by mk. Re-registering under a different kind panics: that is a
// programming error, not a runtime condition.
func (r *Registry) register(name string, labels []Label, kind Kind, mk func() *entry) *entry {
	e := &entry{name: name, labels: renderLabels(labels), kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.byID[e.id()]; ok {
		if prior.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", e.id(), kind, prior.kind))
		}
		return prior
	}
	e = mk()
	e.name, e.labels, e.kind = name, renderLabels(labels), kind
	r.byID[e.id()] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or finds) a counter series. Nil-safe: a nil registry
// returns a nil handle, whose methods are no-ops.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, labels, KindCounter, func() *entry { return &entry{c: &Counter{}} }).c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, labels, KindGauge, func() *entry { return &entry{g: &Gauge{}} }).g
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (ascending; a +Inf bucket is implicit). Bounds are fixed at
// first registration; later registrations under the same identity return
// the existing histogram regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, labels, KindHistogram, func() *entry {
		h := &Histogram{bounds: append([]int64(nil), bounds...)}
		h.buckets = make([]atomic.Int64, len(h.bounds)+1)
		return &entry{h: h}
	}).h
}

// CounterFunc registers a counter whose value is read from fn at
// collection time — the bridge for components that already keep their own
// counters (vmi.Reliable's stats, the runtime's per-PE atomics); the hot
// path pays nothing extra. Re-registering the same identity replaces fn,
// so a fresh run's closures supersede a finished run's.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.register(name, labels, KindCounter, func() *entry { return &entry{} })
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge read from fn at collection time, with the
// same replacement semantics as CounterFunc.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.register(name, labels, KindGauge, func() *entry { return &entry{} })
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// sorted returns the entries ordered by (name, labels), plus each entry's
// fn pointer captured under the lock.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	es := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].labels < es[j].labels
	})
	return es
}

// value reads an entry's scalar value (counter or gauge).
func (e *entry) value() int64 {
	if e.fn != nil {
		return e.fn()
	}
	if e.c != nil {
		return e.c.Value()
	}
	if e.g != nil {
		return e.g.Value()
	}
	return 0
}
