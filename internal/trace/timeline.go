package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderTimelineEvents writes an ASCII utilization timeline of a
// time-sorted event stream (one snapshot, or several gridnode snapshots
// merged), one row per PE for numPE rows: each column is one bucket of
// the horizon, shaded by the fraction of the bucket spent inside handlers
// (' ' idle, '░' <25%, '▒' <50%, '▓' <75%, '█' busy). Recorded idle spans
// are subtracted, so a handler blocked waiting for a message shows as
// idle even though its handler window is open. It is the textual analog of a
// Projections utilization view.
func RenderTimelineEvents(w io.Writer, evs []Event, numPE int, horizon time.Duration, buckets int) {
	if horizon <= 0 || buckets <= 0 || numPE <= 0 {
		fmt.Fprintln(w, "trace: no data")
		return
	}
	bucket := horizon / time.Duration(buckets)
	if bucket <= 0 {
		bucket = time.Nanosecond
	}
	fmt.Fprintf(w, "utilization timeline: %v per column, horizon %v\n", bucket, horizon)
	for pe := 0; pe < numPE; pe++ {
		pevs := eventsForPE(evs, pe)
		spans := subtractSpans(busySpans(pevs, horizon), idleSpans(pevs, horizon))
		var b strings.Builder
		for _, f := range bucketFractions(spans, horizon, buckets) {
			b.WriteRune(shade(f))
		}
		fmt.Fprintf(w, "PE %3d |%s|\n", pe, b.String())
	}
}

// eventsForPE filters a time-sorted merged stream down to one PE.
func eventsForPE(evs []Event, pe int) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.PE == pe {
			out = append(out, ev)
		}
	}
	return out
}

func shade(f float64) rune {
	switch {
	case f <= 0.01:
		return ' '
	case f < 0.25:
		return '░'
	case f < 0.50:
		return '▒'
	case f < 0.75:
		return '▓'
	default:
		return '█'
	}
}

// bucketFractions computes, per bucket of the horizon, the fraction of the
// bucket covered by the (normalized) spans.
func bucketFractions(spans []Span, horizon time.Duration, buckets int) []float64 {
	out := make([]float64, buckets)
	bw := horizon / time.Duration(buckets)
	if bw <= 0 {
		return out
	}
	for _, sp := range spans {
		if sp.End > horizon {
			sp.End = horizon
		}
		if sp.End <= sp.Start {
			continue
		}
		first := int(sp.Start / bw)
		last := int((sp.End - 1) / bw)
		for i := first; i <= last && i < buckets; i++ {
			lo := time.Duration(i) * bw
			hi := lo + bw
			a, b := sp.Start, sp.End
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				out[i] += float64(b-a) / float64(bw)
			}
		}
	}
	for i, f := range out {
		if f > 1 {
			out[i] = 1
		}
	}
	return out
}
