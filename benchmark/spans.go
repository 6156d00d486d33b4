package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/trace"
)

// recorder is the benchmark's own trace.Sink: it keeps every scheduler
// event of a traced repetition in memory, one log per PE, and is read only
// after the run has stopped.
type recorder struct {
	pes []peLog
}

type peLog struct {
	mu  sync.Mutex
	evs []trace.Event
	_   [24]byte // keep neighbouring PEs' locks off one cache line
}

// newRecorder preallocates perPE events for each of numPE PEs.
func newRecorder(numPE, perPE int) *recorder {
	r := &recorder{pes: make([]peLog, numPE)}
	for i := range r.pes {
		r.pes[i].evs = make([]trace.Event, 0, perPE)
	}
	return r
}

// Record implements trace.Sink. An enqueue is recorded by the sender's
// goroutine (or a socket reader) under the destination's PE number, so a
// PE's log has several writers and takes a lock.
func (r *recorder) Record(ev trace.Event) {
	if ev.PE < 0 || ev.PE >= len(r.pes) {
		return
	}
	l := &r.pes[ev.PE]
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// events returns all recorded events sorted by time.
func (r *recorder) events() []trace.Event {
	n := 0
	for i := range r.pes {
		n += len(r.pes[i].evs)
	}
	out := make([]trace.Event, 0, n)
	for i := range r.pes {
		out = append(out, r.pes[i].evs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// msgSpan is the life of one message: send → enqueue is its flight,
// enqueue → begin its wait in the destination queue, begin → end its
// handler. A stage that was not observed leaves its end time negative.
type msgSpan struct {
	ID, Parent uint64
	Kind       core.Kind
	Src, Dst   int
	Send, Enq  time.Duration
	Begin, End time.Duration
}

func (s *msgSpan) complete() bool         { return s.Send >= 0 && s.Enq >= 0 && s.Begin >= 0 && s.End >= 0 }
func (s *msgSpan) flight() time.Duration  { return s.Enq - s.Send }
func (s *msgSpan) wait() time.Duration    { return s.Begin - s.Enq }
func (s *msgSpan) handler() time.Duration { return s.End - s.Begin }

// buildSpans folds an event stream into one span per message ID, in order
// of first appearance.
func buildSpans(evs []trace.Event) []*msgSpan {
	byID := make(map[uint64]*msgSpan, len(evs)/4)
	var out []*msgSpan
	for _, ev := range evs {
		if ev.MsgID == 0 {
			continue
		}
		switch ev.Kind {
		case trace.EvSend, trace.EvEnqueue, trace.EvBegin, trace.EvEnd:
		default:
			continue
		}
		s := byID[ev.MsgID]
		if s == nil {
			s = &msgSpan{ID: ev.MsgID, Kind: core.Kind(ev.MsgKind), Src: -1, Dst: -1, Send: -1, Enq: -1, Begin: -1, End: -1}
			byID[ev.MsgID] = s
			out = append(out, s)
		}
		switch ev.Kind {
		case trace.EvSend:
			s.Send, s.Src, s.Parent = ev.At, ev.PE, ev.Parent
		case trace.EvEnqueue:
			s.Enq, s.Dst = ev.At, ev.PE
		case trace.EvBegin:
			s.Begin = ev.At
		case trace.EvEnd:
			s.End = ev.At
		}
	}
	return out
}

// interval is a half-open stretch of time.
type interval struct{ from, to time.Duration }

// selfTime is the parent's duration minus the part of it its children
// cover: children are clipped to the parent and overlapping children count
// once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.from < parent.from {
			c.from = parent.from
		}
		if c.to > parent.to {
			c.to = parent.to
		}
		if c.to > c.from {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from < clipped[j].from })
	var covered time.Duration
	edge := parent.from
	for _, c := range clipped {
		if c.from > edge {
			edge = c.from
		}
		if c.to > edge {
			covered += c.to - edge
			edge = c.to
		}
	}
	return parent.to - parent.from - covered
}

// maxSpansWritten bounds the span file: enough to inspect a repetition's
// start without turning a million-message run into a gigabyte of JSON.
const maxSpansWritten = 100_000

// writeSpans stores the first maxSpansWritten spans of a traced repetition
// as one JSON document, dir/<workload>.spans.json.
func writeSpans(dir, workload string, spans []*msgSpan) error {
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}
