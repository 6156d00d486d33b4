package trace

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{PE: 0, Kind: EvBegin})
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
	if tr.Len() != 0 {
		t.Error("nil tracer has nonzero length")
	}
	if tr.Utilization(time.Second) != nil {
		t.Error("nil tracer returned utilization")
	}
}

func TestRecordAndSort(t *testing.T) {
	tr := New(2)
	tr.Record(Event{PE: 1, Kind: EvSend, At: 30})
	tr.Record(Event{PE: 0, Kind: EvBegin, At: 10})
	tr.Record(Event{PE: 0, Kind: EvEnd, At: 20})
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events not time-sorted")
		}
	}
	// Out-of-range PEs are dropped, not panicking.
	tr.Record(Event{PE: 99, Kind: EvBegin})
	tr.Record(Event{PE: -1, Kind: EvBegin})
	if tr.Len() != 3 {
		t.Errorf("out-of-range events recorded: len=%d", tr.Len())
	}
}

// Utilization reports, per PE, the fraction of [0, horizon) spent inside
// handlers, derived from Begin/End pairs. Unpaired events are tolerated
// (a Begin without End counts as busy until the horizon). Recorded idle
// spans (EvIdle) are subtracted even when they fall inside an open Begin
// window — a handler that blocks waiting for a message holds its window
// open while the PE is genuinely idle, and counting that as busy would
// hide exactly the latency this tracer exists to measure.
func (t *Tracer) Utilization(horizon time.Duration) []float64 {
	if t == nil || horizon <= 0 {
		return nil
	}
	util := make([]float64, len(t.shards))
	for pe := range t.shards {
		evs := t.shardEvents(pe)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		spans := subtractSpans(busySpans(evs, horizon), idleSpans(evs, horizon))
		util[pe] = float64(totalSpans(spans)) / float64(horizon)
	}
	return util
}

func TestUtilization(t *testing.T) {
	tr := New(2)
	// PE 0 busy [0,50ms) and [75ms,100ms) => 75%.
	tr.Record(Event{PE: 0, Kind: EvBegin, At: 0})
	tr.Record(Event{PE: 0, Kind: EvEnd, At: 50 * time.Millisecond})
	tr.Record(Event{PE: 0, Kind: EvBegin, At: 75 * time.Millisecond})
	tr.Record(Event{PE: 0, Kind: EvEnd, At: 100 * time.Millisecond})
	// PE 1: open-ended Begin at 90ms => busy 10% of horizon.
	tr.Record(Event{PE: 1, Kind: EvBegin, At: 90 * time.Millisecond})

	u := tr.Utilization(100 * time.Millisecond)
	if math.Abs(u[0]-0.75) > 1e-9 {
		t.Errorf("PE0 utilization = %v, want 0.75", u[0])
	}
	if math.Abs(u[1]-0.10) > 1e-9 {
		t.Errorf("PE1 utilization = %v, want 0.10", u[1])
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(4)
	var wg sync.WaitGroup
	for pe := 0; pe < 4; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record(Event{PE: pe, Kind: EvSend, At: time.Duration(i)})
			}
		}(pe)
	}
	wg.Wait()
	if tr.Len() != 4000 {
		t.Errorf("len = %d, want 4000", tr.Len())
	}
}

func TestKindString(t *testing.T) {
	for k := EvBegin; k <= EvNote; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind has empty string")
	}
}
