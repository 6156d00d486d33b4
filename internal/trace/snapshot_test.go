package trace

import (
	"strings"
	"testing"
	"time"
)

func TestReadSnapshotMalformed(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "empty input"},
		{"whitespace only", "   \n\t ", "empty input"},
		{"truncated", `{"node":0,"pe_lo":0,"pe_hi":4,"events":[{"pe":1,"k":0,`, "truncated"},
		{"garbage", "\x00\x01\x02 not json at all", "not JSON"},
		{"wrong shape", `{"node":"zero","pe_lo":0,"pe_hi":4}`, "wrong type"},
		{"wrong document", `{"series":[{"name":"x","value":3}]}`, "not a trace snapshot"},
		{"inverted PE range", `{"node":0,"pe_lo":4,"pe_hi":2}`, "invalid PE range"},
		{"negative event PE", `{"node":0,"pe_lo":0,"pe_hi":2,"events":[{"pe":-1,"k":0,"at":5}]}`, "negative PE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("ReadSnapshot(%q) succeeded, want error containing %q", tc.input, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadSnapshotRoundTrip(t *testing.T) {
	tr := New(2)
	tr.Record(Event{PE: 0, Kind: EvSend, At: time.Millisecond, MsgID: 7})
	tr.Record(Event{PE: 1, Kind: EvBegin, At: 2 * time.Millisecond, MsgID: 7})
	var buf strings.Builder
	if err := tr.Snapshot(3, 0, 2, 5*time.Millisecond).Write(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if s.Node != 3 || s.PEHi != 2 || len(s.Events) != 2 {
		t.Errorf("round trip lost data: node=%d pe_hi=%d events=%d", s.Node, s.PEHi, len(s.Events))
	}
}

func TestCursorIncrementalRead(t *testing.T) {
	tr := New(2)
	c := tr.NewCursor()

	// Nothing recorded yet.
	if evs := c.ReadNew(nil); len(evs) != 0 {
		t.Fatalf("fresh cursor read %d events", len(evs))
	}

	tr.Record(Event{PE: 0, Kind: EvSend, At: 1, MsgID: 10})
	tr.Record(Event{PE: 1, Kind: EvBegin, At: 2, MsgID: 10})
	evs := c.ReadNew(nil)
	if len(evs) != 2 {
		t.Fatalf("first read got %d events, want 2", len(evs))
	}
	if evs[0].At > evs[1].At {
		t.Error("read not time-sorted")
	}

	// A second read returns only events recorded since.
	tr.Record(Event{PE: 0, Kind: EvEnd, At: 3, MsgID: 10})
	evs = c.ReadNew(nil)
	if len(evs) != 1 || evs[0].Kind != EvEnd {
		t.Fatalf("incremental read got %+v, want the one new EvEnd", evs)
	}
	if evs = c.ReadNew(nil); len(evs) != 0 {
		t.Fatalf("drained cursor read %d events", len(evs))
	}
	if c.Skipped() != 0 {
		t.Errorf("skipped %d without wrap", c.Skipped())
	}

	// A cursor created mid-run starts at the tail, not the beginning.
	late := tr.NewCursor()
	if evs := late.ReadNew(nil); len(evs) != 0 {
		t.Fatalf("late cursor replayed %d old events", len(evs))
	}
}

func TestCursorWrapSkips(t *testing.T) {
	tr := NewWithCapacity(1, 4)
	c := tr.NewCursor()
	for i := 0; i < 10; i++ {
		tr.Record(Event{PE: 0, Kind: EvNote, At: time.Duration(i), Arg1: int64(i)})
	}
	evs := c.ReadNew(nil)
	// Ring holds 4; the 6 oldest were overwritten before the read.
	if len(evs) != 4 {
		t.Fatalf("read %d events after wrap, want 4", len(evs))
	}
	if got := c.Skipped(); got != 6 {
		t.Errorf("Skipped() = %d, want 6", got)
	}
	// The survivors are the newest, in order.
	for i, ev := range evs {
		if ev.Arg1 != int64(6+i) {
			t.Errorf("event %d has Arg1 %d, want %d", i, ev.Arg1, 6+i)
		}
	}
}

// TestCursorStopsAtUncommittedSlot: a slot claimed but not yet written
// holds back the events behind it until its writer commits, and then
// all of them arrive, in order, on the next read.
func TestCursorStopsAtUncommittedSlot(t *testing.T) {
	tr := NewWithCapacity(1, 8)
	c := tr.NewCursor()
	tr.Record(Event{PE: 0, Kind: EvNote, At: 1, Arg1: 1})
	s := &tr.shards[0]
	i := s.pos.Add(1) - 1 // a writer claims slot i and is descheduled
	tr.Record(Event{PE: 0, Kind: EvNote, At: 3, Arg1: 3})
	if evs := c.ReadNew(nil); len(evs) != 1 || evs[0].Arg1 != 1 {
		t.Fatalf("read %+v, want only the event before the uncommitted slot", evs)
	}
	s.buf[i&s.mask].ev = Event{PE: 0, Kind: EvNote, At: 2, Arg1: 2}
	s.buf[i&s.mask].stamp.Store(i + 1)
	evs := c.ReadNew(nil)
	if len(evs) != 2 || evs[0].Arg1 != 2 || evs[1].Arg1 != 3 {
		t.Fatalf("read %+v after the commit, want events 2 and 3", evs)
	}
	if c.Skipped() != 0 {
		t.Errorf("skipped %d with no wrap", c.Skipped())
	}
}

func TestCursorNilTracer(t *testing.T) {
	var tr *Tracer
	c := tr.NewCursor()
	if evs := c.ReadNew(nil); len(evs) != 0 {
		t.Fatalf("nil-tracer cursor read %d events", len(evs))
	}
	if c.Skipped() != 0 {
		t.Error("nil-tracer cursor skipped events")
	}
}
