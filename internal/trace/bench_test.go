package trace

import (
	"testing"
	"time"
)

// The tracing hot path must stay allocation-free whether tracing is off
// (nil tracer — the common case, one predicted branch) or on (ring slot
// claim + copy). CI pins both at 0 allocs/op; EXPERIMENTS.md §20 records
// the baseline numbers.

func TestTraceDisabledAllocatesNothing(t *testing.T) {
	var tr *Tracer
	ev := Event{PE: 0, Kind: EvSend, MsgID: 1, Parent: 2}
	if n := testing.AllocsPerRun(1000, func() { tr.Record(ev) }); n != 0 {
		t.Fatalf("nil-tracer Record allocates %v/op, want 0", n)
	}
}

func TestTraceRecordAllocatesNothing(t *testing.T) {
	tr := NewWithCapacity(1, 1<<10)
	ev := Event{PE: 0, Kind: EvSend, At: time.Microsecond, MsgID: 1, Parent: 2}
	if n := testing.AllocsPerRun(1000, func() { tr.Record(ev) }); n != 0 {
		t.Fatalf("ring Record allocates %v/op, want 0", n)
	}
}

func BenchmarkTraceRecordDisabled(b *testing.B) {
	var tr *Tracer
	ev := Event{PE: 0, Kind: EvSend, MsgID: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(ev)
	}
}

func BenchmarkTraceRecordRing(b *testing.B) {
	tr := NewWithCapacity(1, 1<<12)
	ev := Event{PE: 0, Kind: EvSend, At: time.Microsecond, MsgID: 1, Parent: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(ev)
	}
}

func BenchmarkTraceRecordRingParallel(b *testing.B) {
	tr := NewWithCapacity(8, 1<<12)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ev := Event{PE: 1, Kind: EvEnqueue, MsgID: 3}
		for pb.Next() {
			tr.Record(ev)
		}
	})
}
