// Package trace provides lightweight causal event tracing for GridMDO
// executors, in the spirit of Charm++'s Projections logs: per-PE streams
// of handler begin/end and message send/enqueue events, linked into a
// cross-node DAG by message IDs, from which utilization timelines, overlap
// profiles (compute vs. comm-wait vs. masked latency) and critical paths
// are derived. Tracing is optional; a nil *Tracer is a valid no-op
// everywhere.
package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	EvBegin   Kind = iota // handler execution began
	EvEnd                 // handler execution ended
	EvSend                // message sent
	EvEnqueue             // message enqueued at destination PE
	EvIdle                // scheduler went idle (At = start, Arg1 = duration ns)
	EvNote                // free-form annotation
)

func (k Kind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvEnd:
		return "end"
	case EvSend:
		return "send"
	case EvEnqueue:
		return "enqueue"
	case EvIdle:
		return "idle"
	case EvNote:
		return "note"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. Arg1/Arg2 carry kind-specific payloads
// (array/element IDs, message sizes) without coupling this package to the
// runtime's types.
//
// MsgID and Parent carry the causal context. On EvSend/EvEnqueue, MsgID
// identifies the message in flight and Parent is the ID of the message
// whose handler sent it (0 when sent outside a handler). On EvBegin/EvEnd,
// MsgID identifies the message being executed. IDs are node-unique (the
// runtime seeds them with the node number in the high bits), so events
// merged from several gridnode snapshots still form one DAG.
type Event struct {
	PE      int
	Kind    Kind
	MsgKind byte          // runtime message kind (core.Kind) for Send/Enqueue/Begin/End
	At      time.Duration // virtual or wall time since run start
	MsgID   uint64
	Parent  uint64
	Arg1    int64
	Arg2    int64
	Note    string
}

// Sink receives executor events. It is the one instrumentation surface
// executors emit to: a *Tracer is a Sink, the metrics adapters in core are
// Sinks, and Tee fans one Record call out to several — so adding metrics
// next to tracing costs no second instrumentation call site in the
// scheduler. Implementations must be safe for concurrent Record calls and
// must not block.
type Sink interface {
	Record(Event)
}

// multiSink fans events out to several sinks.
type multiSink []Sink

// Record implements Sink.
func (m multiSink) Record(ev Event) {
	for _, s := range m {
		s.Record(ev)
	}
}

// Tee combines sinks into one, dropping nils (an untyped nil and a nil
// *Tracer alike). It returns nil when nothing remains, a single sink
// unwrapped, and a fan-out otherwise — so the executor's per-event cost
// matches the sinks actually configured.
func Tee(sinks ...Sink) Sink {
	var live multiSink
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if t, ok := s.(*Tracer); ok && t == nil {
			continue
		}
		live = append(live, s)
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// DefaultCapacity is the per-PE ring size used by New: large enough for
// the paper-scale experiments (~10k events/PE) with headroom, small enough
// (~2.5 MB/PE) that tracing a 64-PE soak run stays bounded.
const DefaultCapacity = 1 << 15

// DrainedCapacity is the per-PE ring size appropriate when a telemetry
// agent continuously drains the ring through a Cursor: the ring only has
// to hold one reporting interval's events, not the whole run. Size is
// not just memory — Event holds a string, so the GC scans every resident
// slot on every cycle, and on a busy host an oversized ring taxes the
// mutator far more than the lock-free Record path does (the telemetry
// bench prices DefaultCapacity at >10% of stencil step time on one core,
// DrainedCapacity at noise level).
const DrainedCapacity = 1 << 12

// Tracer collects events into bounded per-PE ring buffers. Record is
// lock-free and allocation-free: a shard claims a slot with one atomic add
// and overwrites the oldest event once the ring wraps, so a tracer left on
// for a long soak run costs fixed memory and loses only the oldest
// history. The zero value is unusable; call New or NewWithCapacity.
// Tracer implements Sink; a nil *Tracer records nothing.
//
// Readers (Events, Len, ...) are meant for quiescence — after Run
// returns or between phases. A Cursor may drain a ring while it is
// written: it copies only committed slots (see slot).
type Tracer struct {
	shards []ring
}

// ring is one PE's bounded event buffer. pos counts events ever recorded;
// event i lives at buf[i&mask]. The pad keeps neighboring shards' hot
// counters on different cache lines.
type ring struct {
	pos  atomic.Uint64
	_    [56]byte
	buf  []slot
	mask uint64
}

// slot is one ring entry. Record claims index i (pos.Add) before it
// copies the event in, then commits it by storing stamp = i+1; a Cursor
// copies event i only once it sees that stamp, so it never reads an
// event still being written.
type slot struct {
	stamp atomic.Uint64
	ev    Event
}

// New builds a tracer for numPE processing elements with DefaultCapacity
// events per PE.
func New(numPE int) *Tracer {
	return NewWithCapacity(numPE, DefaultCapacity)
}

// NewWithCapacity builds a tracer whose per-PE rings hold capacity events
// (rounded up to a power of two, minimum 1). Older events are overwritten
// once a ring fills; Dropped reports how many.
func NewWithCapacity(numPE, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	c := 1 << bits.Len(uint(capacity-1)) // next power of two
	t := &Tracer{shards: make([]ring, numPE)}
	for i := range t.shards {
		t.shards[i].buf = make([]slot, c)
		t.shards[i].mask = uint64(c - 1)
	}
	return t
}

// Record appends an event. Lock-free, allocation-free, safe for
// concurrent use, nil-safe.
func (t *Tracer) Record(ev Event) {
	if t == nil || ev.PE < 0 || ev.PE >= len(t.shards) {
		return
	}
	s := &t.shards[ev.PE]
	i := s.pos.Add(1) - 1
	sl := &s.buf[i&s.mask]
	sl.ev = ev
	sl.stamp.Store(i + 1)
}

// shardEvents copies one PE's retained events in recording order. When
// the ring wrapped, the oldest retained event sits at pos&mask.
func (t *Tracer) shardEvents(pe int) []Event {
	s := &t.shards[pe]
	n := s.pos.Load()
	lo := uint64(0)
	if c := uint64(len(s.buf)); n > c {
		lo = n - c
	}
	out := make([]Event, 0, n-lo)
	for i := lo; i < n; i++ {
		out = append(out, s.buf[i&s.mask].ev)
	}
	return out
}

// Events returns a time-sorted copy of all retained events. Meant to be
// called at quiescence (after the run finishes).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var all []Event
	for pe := range t.shards {
		all = append(all, t.shardEvents(pe)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// Dropped reports how many events were overwritten by ring wrap-around
// across all PEs. Nonzero Dropped means timelines and critical paths are
// missing their oldest history.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	d := uint64(0)
	for i := range t.shards {
		s := &t.shards[i]
		if p, c := s.pos.Load(), uint64(len(s.buf)); p > c {
			d += p - c
		}
	}
	return d
}

// Cursor reads a tracer incrementally: each ReadNew call returns the
// events recorded since the previous call, so a telemetry agent can ship
// periodic digests without rescanning (or double-counting) the whole
// ring. One cursor tracks one consumer; cursors are independent and a
// cursor must not be shared between goroutines without external locking.
//
// ReadNew may run while the ring is written. It stops at a PE's first
// uncommitted slot and resumes there on the next call, so an event being
// recorded is delivered whole, one call later. When a ring wraps past
// the cursor the overwritten events are gone — between calls, or during
// one, when a writer reclaims a slot the cursor just copied; Skipped
// reports how many, and the cursor jumps forward to the oldest event
// still retained.
type Cursor struct {
	t       *Tracer
	pos     []uint64 // per-shard read position (events consumed so far)
	scratch []Event  // merge buffer, reused across ReadNew calls
	skipped uint64
}

// NewCursor returns a cursor positioned at the tracer's current tail:
// the first ReadNew returns only events recorded after this call. A nil
// tracer yields a valid cursor that always reads nothing.
func (t *Tracer) NewCursor() *Cursor {
	c := &Cursor{t: t}
	if t == nil {
		return c
	}
	c.pos = make([]uint64, len(t.shards))
	for i := range t.shards {
		c.pos[i] = t.shards[i].pos.Load()
	}
	return c
}

// ReadNew appends to dst the events recorded since the last call (or
// since NewCursor), time-sorted, and returns the extended slice.
func (c *Cursor) ReadNew(dst []Event) []Event {
	if c.t == nil {
		return dst
	}
	base := len(dst)
	bounds := make([]int, 1, len(c.t.shards)+1)
	for pe := range c.t.shards {
		s := &c.t.shards[pe]
		n := s.pos.Load()
		lo := c.pos[pe]
		if n == lo {
			continue
		}
		cap64 := uint64(len(s.buf))
		if n-lo > cap64 {
			// The ring lapped the cursor; the oldest unread events were
			// overwritten. Resume at the oldest slot still retained.
			c.skipped += n - lo - cap64
			lo = n - cap64
		}
		start := len(dst)
		i := lo
		for ; i < n; i++ {
			sl := &s.buf[i&s.mask]
			if sl.stamp.Load() != i+1 {
				break // not committed yet (or already lapped, below)
			}
			dst = append(dst, sl.ev)
		}
		// Writers claim before they write, so a copy is whole unless
		// its slot was claimed for the next lap by the time it ended.
		if now := s.pos.Load(); now > lo+cap64 {
			torn := min(now-cap64-lo, i-lo)
			dst = append(dst[:start], dst[start+int(torn):]...)
			c.skipped += torn
		}
		c.pos[pe] = i
		if len(dst) > start {
			bounds = append(bounds, len(dst)-base)
		}
	}
	c.scratch = mergeRuns(dst[base:], bounds, c.scratch)
	return dst
}

// mergeRuns time-sorts evs, given bounds marking consecutive runs
// (evs[bounds[i]:bounds[i+1]]). Each PE shard records in time order, so
// a cursor tail is one sorted run per shard; merging them is a single
// linear pass where a whole-tail stable sort pays O(n log n) block
// rotations — ReadNew dominated telemetry agent tick profiles before
// this. Ties keep run (shard) order, matching the stable sort this
// replaces. A run recorded with out-of-order At values (tests stamp
// events by hand) is sorted before merging. scratch is spare merge
// space, returned (possibly grown) for the caller to reuse.
func mergeRuns(evs []Event, bounds []int, scratch []Event) []Event {
	before := func(run []Event) func(i, j int) bool {
		return func(i, j int) bool { return run[i].At < run[j].At }
	}
	for i := 0; i+1 < len(bounds); i++ {
		run := evs[bounds[i]:bounds[i+1]]
		if !sort.SliceIsSorted(run, before(run)) {
			sort.SliceStable(run, before(run))
		}
	}
	if len(bounds) <= 2 {
		return scratch // zero or one run: nothing to merge
	}
	if cap(scratch) < len(evs) {
		scratch = make([]Event, len(evs))
	}
	tmp := scratch[:len(evs)]
	heads := append([]int(nil), bounds[:len(bounds)-1]...)
	for out := range tmp {
		best := -1
		for r := range heads {
			if heads[r] == bounds[r+1] {
				continue
			}
			if best < 0 || evs[heads[r]].At < evs[heads[best]].At {
				best = r
			}
		}
		tmp[out] = evs[heads[best]]
		heads[best]++
	}
	copy(evs, tmp)
	return scratch
}

// Skipped reports how many events ring wrap-around overwrote before the
// cursor could read them, cumulatively since NewCursor. A growing value
// means the consumer polls slower than the run records.
func (c *Cursor) Skipped() uint64 { return c.skipped }
