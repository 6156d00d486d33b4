package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// The overlap profiler is the direct measurement of the paper's central
// claim: message-driven scheduling overlaps WAN latency with computation.
// For every message the causal stream records a flight span (send → enqueue
// at the destination PE). Flight time that coincides with the destination
// PE being busy in other handlers is *masked* latency — the latency the
// scheduler hid. Flight time while the destination PE had nothing to run
// is *exposed* latency: genuine comm-wait. As the virtualization degree
// V/P grows, each PE has more objects to run while a message is in the
// air, so the masked fraction should grow — that is Figure 3's flat curve,
// measured directly instead of inferred.

// PEOverlap is one PE's time breakdown over a window.
type PEOverlap struct {
	PE       int
	Busy     time.Duration // inside handlers (minus recorded idle)
	CommWait time.Duration // flights in the air while this PE was not busy (= exposed)
	PureIdle time.Duration // idle with nothing in flight toward this PE
	Masked   time.Duration // flight time overlapped by useful computation
	Exposed  time.Duration // flight time not overlapped (equals CommWait)
	Flights  int           // messages whose flight terminated at this PE
}

// MaskedFraction is the fraction of in-flight latency toward this PE that
// was hidden behind computation.
func (p PEOverlap) MaskedFraction() float64 {
	if t := p.Masked + p.Exposed; t > 0 {
		return float64(p.Masked) / float64(t)
	}
	return 0
}

// Overlap aggregates the per-PE breakdowns over one window.
type Overlap struct {
	From, To time.Duration
	PEs      []PEOverlap
}

// Totals sums the per-PE breakdowns.
func (o *Overlap) Totals() PEOverlap {
	t := PEOverlap{PE: -1}
	for _, p := range o.PEs {
		t.Busy += p.Busy
		t.CommWait += p.CommWait
		t.PureIdle += p.PureIdle
		t.Masked += p.Masked
		t.Exposed += p.Exposed
		t.Flights += p.Flights
	}
	return t
}

// MaskedFraction is the run-wide masked fraction of in-flight latency.
func (o *Overlap) MaskedFraction() float64 { return o.Totals().MaskedFraction() }

// flight is one message's in-air span, ending at the destination PE.
type flight struct {
	dst  int
	span Span
}

// collectFlights pairs EvSend with the matching EvEnqueue by MsgID; each
// enqueue closes its own flight. Flights whose enqueue precedes their send
// (cross-process clock skew) are clamped to zero length and dropped.
func collectFlights(evs []Event) []flight {
	sendAt := make(map[uint64]time.Duration)
	for _, ev := range evs {
		if ev.Kind == EvSend && ev.MsgID != 0 {
			if _, ok := sendAt[ev.MsgID]; !ok {
				sendAt[ev.MsgID] = ev.At
			}
		}
	}
	var out []flight
	for _, ev := range evs {
		if ev.Kind != EvEnqueue || ev.MsgID == 0 {
			continue
		}
		s, ok := sendAt[ev.MsgID]
		if !ok || ev.At <= s {
			continue
		}
		out = append(out, flight{dst: ev.PE, span: Span{s, ev.At}})
	}
	return out
}

// ComputeOverlap builds the overlap profile of a merged, time-sorted event
// stream over [0, horizon), one PEOverlap per PE in [0, numPE).
func ComputeOverlap(evs []Event, numPE int, horizon time.Duration) *Overlap {
	return computeOverlapWindow(evs, collectFlights(evs), numPE, 0, horizon)
}

func computeOverlapWindow(evs []Event, flights []flight, numPE int, from, to time.Duration) *Overlap {
	o := &Overlap{From: from, To: to}
	perDst := make([][]Span, numPE)
	counts := make([]int, numPE)
	for _, f := range flights {
		if f.dst < 0 || f.dst >= numPE {
			continue
		}
		c := clipSpans([]Span{f.span}, from, to)
		if len(c) == 0 {
			continue
		}
		perDst[f.dst] = append(perDst[f.dst], c...)
		counts[f.dst]++
	}
	window := to - from
	for pe := 0; pe < numPE; pe++ {
		pevs := eventsForPE(evs, pe)
		busy := clipSpans(subtractSpans(busySpans(pevs, to), idleSpans(pevs, to)), from, to)
		// Union of flights toward this PE, so overlapping flights are not
		// double-counted in the masked/exposed split.
		flightU := normalizeSpans(perDst[pe])
		masked := totalSpans(intersectSpans(flightU, busy))
		inAir := totalSpans(flightU)
		busyT := totalSpans(busy)
		exposed := inAir - masked
		pure := window - busyT - exposed
		if pure < 0 {
			pure = 0
		}
		o.PEs = append(o.PEs, PEOverlap{
			PE:       pe,
			Busy:     busyT,
			CommWait: exposed,
			PureIdle: pure,
			Masked:   masked,
			Exposed:  exposed,
			Flights:  counts[pe],
		})
	}
	return o
}

// StepOverlap is the overlap profile of one application step, delimited by
// "step" note events (Ctx.Mark("step", n, 0) from the application).
type StepOverlap struct {
	Step int64
	Overlap
}

// StepOverlaps segments [0, horizon) at the "step" note marks in the
// stream and profiles each segment. The segment before the first mark is
// labelled with that mark's step number minus one fencepost — i.e. marks
// are treated as step *starts*. With no marks, one segment covering the
// whole horizon is returned with Step −1.
func StepOverlaps(evs []Event, numPE int, horizon time.Duration) []StepOverlap {
	type mark struct {
		at   time.Duration
		step int64
	}
	var marks []mark
	for _, ev := range evs {
		if ev.Kind == EvNote && ev.Note == "step" {
			marks = append(marks, mark{ev.At, ev.Arg1})
		}
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].at < marks[j].at })
	flights := collectFlights(evs)
	if len(marks) == 0 {
		o := computeOverlapWindow(evs, flights, numPE, 0, horizon)
		return []StepOverlap{{Step: -1, Overlap: *o}}
	}
	var out []StepOverlap
	for i, m := range marks {
		from := m.at
		to := horizon
		if i+1 < len(marks) {
			to = marks[i+1].at
		}
		if to <= from {
			continue
		}
		o := computeOverlapWindow(evs, flights, numPE, from, to)
		out = append(out, StepOverlap{Step: m.step, Overlap: *o})
	}
	return out
}

// Report writes a human-readable overlap profile: the run-wide masked
// fraction, then the per-PE compute / comm-wait / masked breakdown.
func (o *Overlap) Report(w io.Writer) {
	tot := o.Totals()
	window := o.To - o.From
	fmt.Fprintf(w, "overlap profile [%v, %v): masked latency %.1f%% of %v in flight (%d flights)\n",
		o.From.Round(time.Microsecond), o.To.Round(time.Microsecond),
		100*tot.MaskedFraction(), (tot.Masked + tot.Exposed).Round(time.Microsecond), tot.Flights)
	fmt.Fprintf(w, "  %-5s %12s %12s %12s %12s %8s\n", "PE", "compute", "comm-wait", "masked", "pure-idle", "masked%")
	for _, p := range o.PEs {
		fmt.Fprintf(w, "  %-5d %12v %12v %12v %12v %7.1f%%\n",
			p.PE, p.Busy.Round(time.Microsecond), p.CommWait.Round(time.Microsecond),
			p.Masked.Round(time.Microsecond), p.PureIdle.Round(time.Microsecond),
			100*p.MaskedFraction())
	}
	if window > 0 {
		fmt.Fprintf(w, "  total compute %.1f%%, comm-wait %.1f%% of window\n",
			100*float64(tot.Busy)/float64(window)/float64(maxInt(len(o.PEs), 1)),
			100*float64(tot.CommWait)/float64(window)/float64(maxInt(len(o.PEs), 1)))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
