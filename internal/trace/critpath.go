package trace

import (
	"fmt"
	"io"
	"time"
)

// Critical-path analysis over the send→enqueue→begin→end message DAG, in
// the spirit of "Task Graph Transformations for Latency Tolerance": walk
// backwards from the last handler completion through each message's
// parent (the message whose handler sent it), classifying every hop's
// contribution as flight (in the air / on the wire), queue (enqueued,
// waiting for the PE), or compute (inside the handler).
//
// A nearest-neighbour exchange keeps the WAN flight on the dependency
// chain at every virtualization degree — the ghost *must* cross the link
// before the next step. What virtualization changes is whether that
// flight time is *exposed* (the destination PE sat idle under it) or
// *masked* (the PE was computing other objects while it flew). Each
// hop's flight is therefore split against the destination PE's busy
// spans: a run bounded by exposed WAN latency shows a comm-wait-dominated
// path; once virtualization masks the latency the path shifts to
// compute.

// Hop is one message's contribution to the critical path.
type Hop struct {
	MsgID   uint64
	MsgKind byte
	PE      int           // where the handler ran
	Flight  time.Duration // send → enqueue
	Masked  time.Duration // flight time the destination PE spent computing
	Queue   time.Duration // enqueue → begin
	Compute time.Duration // begin → end
}

// CritPath is the chain of hops bounding the traced run, root first.
type CritPath struct {
	Hops    []Hop
	Flight  time.Duration
	Masked  time.Duration // portion of Flight hidden behind destination compute
	Exposed time.Duration // portion of Flight the destination idled under
	Queue   time.Duration
	Compute time.Duration
	Total   time.Duration
	Clipped bool // walk stopped at a missing parent (ring wrap or foreign node)
}

// Dominant names the largest component: "compute", "comm-wait" (exposed
// flight), or "queue". Masked flight counts toward neither — the PE was
// doing useful work under it, which is the paper's point.
func (c *CritPath) Dominant() string {
	switch {
	case c.Compute >= c.Exposed && c.Compute >= c.Queue:
		return "compute"
	case c.Exposed >= c.Queue:
		return "comm-wait"
	}
	return "queue"
}

// msgTimes is the per-message lifecycle assembled from the event stream.
type msgTimes struct {
	send, enq, begin, end time.Duration
	hasSend, hasEnq       bool
	hasBegin, hasEnd      bool
	parent                uint64
	pe                    int
	kind                  byte
}

func indexMessages(evs []Event) map[uint64]*msgTimes {
	idx := make(map[uint64]*msgTimes)
	get := func(id uint64) *msgTimes {
		m, ok := idx[id]
		if !ok {
			m = &msgTimes{}
			idx[id] = m
		}
		return m
	}
	for _, ev := range evs {
		if ev.MsgID == 0 {
			continue
		}
		m := get(ev.MsgID)
		switch ev.Kind {
		case EvSend:
			if !m.hasSend {
				m.send, m.hasSend = ev.At, true
				m.parent = ev.Parent
				m.kind = ev.MsgKind
			}
		case EvEnqueue:
			if !m.hasEnq {
				m.enq, m.hasEnq = ev.At, true
			}
		case EvBegin:
			if !m.hasBegin {
				m.begin, m.hasBegin = ev.At, true
				m.pe = ev.PE
				if m.kind == 0 {
					m.kind = ev.MsgKind
				}
			}
		case EvEnd:
			if !m.hasEnd || ev.At > m.end {
				m.end, m.hasEnd = ev.At, true
			}
		}
	}
	return idx
}

// CriticalPath walks backwards from the last handler completion in the
// merged stream. The walk follows each message's Parent link; it stops at
// a message with no recorded parent (the root, typically the start
// message) or whose parent's events were lost (ring wrap-around), setting
// Clipped in the latter case.
func CriticalPath(evs []Event) *CritPath {
	idx := indexMessages(evs)
	// Terminal: the executed message with the latest end time.
	var termID uint64
	var termEnd time.Duration = -1
	for id, m := range idx {
		if m.hasEnd && m.end > termEnd {
			termEnd, termID = m.end, id
		}
	}
	cp := &CritPath{}
	if termID == 0 {
		return cp
	}
	// Destination busy spans, built lazily per PE, split each hop's flight
	// into masked (PE computing underneath) and exposed (PE idle).
	var maxAt time.Duration
	for _, ev := range evs {
		if end := ev.At + time.Duration(ev.Arg1); ev.Kind == EvIdle && end > maxAt {
			maxAt = end
		} else if ev.At > maxAt {
			maxAt = ev.At
		}
	}
	busyFor := make(map[int][]Span)
	peBusy := func(pe int) []Span {
		if b, ok := busyFor[pe]; ok {
			return b
		}
		pevs := eventsForPE(evs, pe)
		b := subtractSpans(busySpans(pevs, maxAt), idleSpans(pevs, maxAt))
		busyFor[pe] = b
		return b
	}
	seen := make(map[uint64]bool)
	var rev []Hop
	id := termID
	for id != 0 && !seen[id] && len(rev) < 1<<16 {
		seen[id] = true
		m, ok := idx[id]
		if !ok {
			cp.Clipped = true
			break
		}
		h := Hop{MsgID: id, MsgKind: m.kind, PE: m.pe}
		if m.hasBegin && m.hasEnd && m.end > m.begin {
			h.Compute = m.end - m.begin
		}
		if m.hasEnq && m.hasBegin && m.begin > m.enq {
			h.Queue = m.begin - m.enq
		}
		if m.hasSend && m.hasEnq && m.enq > m.send {
			h.Flight = m.enq - m.send
			if m.hasBegin {
				h.Masked = totalSpans(intersectSpans(
					[]Span{{m.send, m.enq}}, peBusy(m.pe)))
			}
		}
		rev = append(rev, h)
		if m.parent != 0 && idx[m.parent] == nil {
			cp.Clipped = true
		}
		id = m.parent
	}
	// Reverse into causal order, root first.
	for i := len(rev) - 1; i >= 0; i-- {
		h := rev[i]
		cp.Hops = append(cp.Hops, h)
		cp.Flight += h.Flight
		cp.Masked += h.Masked
		cp.Queue += h.Queue
		cp.Compute += h.Compute
	}
	cp.Exposed = cp.Flight - cp.Masked
	cp.Total = cp.Flight + cp.Queue + cp.Compute
	return cp
}

// Report writes a human-readable critical-path summary: totals, the
// dominant component, and the first/last hops of the chain.
func (c *CritPath) Report(w io.Writer, msgKindName func(byte) string) {
	if len(c.Hops) == 0 {
		fmt.Fprintln(w, "critical path: no complete handler chain in trace")
		return
	}
	if msgKindName == nil {
		msgKindName = func(k byte) string { return fmt.Sprintf("kind%d", k) }
	}
	fmt.Fprintf(w, "critical path: %d hops, %v total (compute %v / flight %v = %v masked + %v comm-wait / queue %v), dominated by %s\n",
		len(c.Hops), c.Total.Round(time.Microsecond), c.Compute.Round(time.Microsecond),
		c.Flight.Round(time.Microsecond), c.Masked.Round(time.Microsecond),
		c.Exposed.Round(time.Microsecond), c.Queue.Round(time.Microsecond), c.Dominant())
	if c.Clipped {
		fmt.Fprintln(w, "  (walk clipped: oldest history lost to ring wrap or a foreign-node snapshot is missing)")
	}
	show := c.Hops
	const headTail = 4
	if len(show) > 2*headTail {
		for _, h := range show[:headTail] {
			reportHop(w, h, msgKindName)
		}
		fmt.Fprintf(w, "  ... %d more hops ...\n", len(show)-2*headTail)
		show = show[len(show)-headTail:]
	}
	for _, h := range show {
		reportHop(w, h, msgKindName)
	}
}

func reportHop(w io.Writer, h Hop, msgKindName func(byte) string) {
	fmt.Fprintf(w, "  msg %#x %-7s PE %-3d flight %-12v (masked %-12v) queue %-12v compute %v\n",
		h.MsgID, msgKindName(h.MsgKind), h.PE,
		h.Flight.Round(time.Microsecond), h.Masked.Round(time.Microsecond),
		h.Queue.Round(time.Microsecond), h.Compute.Round(time.Microsecond))
}
