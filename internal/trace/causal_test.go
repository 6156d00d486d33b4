package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

const msTest = time.Millisecond

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := NewWithCapacity(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{PE: 0, Kind: EvNote, At: time.Duration(i), Arg1: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.Arg1 != want {
			t.Fatalf("event %d: Arg1 = %d, want %d (oldest retained must be 6)", i, ev.Arg1, want)
		}
	}
}

func TestCapacityRoundsToPowerOfTwo(t *testing.T) {
	tr := NewWithCapacity(1, 5)
	if got := len(tr.shards[0].buf); got != 8 {
		t.Fatalf("capacity = %d, want 8", got)
	}
	tr = NewWithCapacity(1, 8)
	if got := len(tr.shards[0].buf); got != 8 {
		t.Fatalf("capacity = %d, want 8", got)
	}
}

// Regression: idle gaps inside an open Begin window (a handler that
// yields its PE while waiting) must not count as busy.
func TestUtilizationSubtractsIdle(t *testing.T) {
	tr := New(1)
	tr.Record(Event{PE: 0, Kind: EvBegin, At: 0})
	tr.Record(Event{PE: 0, Kind: EvIdle, At: 40 * msTest, Arg1: int64(20 * msTest)})
	tr.Record(Event{PE: 0, Kind: EvEnd, At: 100 * msTest})
	u := tr.Utilization(100 * msTest)
	if math.Abs(u[0]-0.80) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.80 (idle span inside Begin window not subtracted)", u[0])
	}
}

func TestSpanAlgebra(t *testing.T) {
	a := []Span{{0, 10}, {20, 30}}
	b := []Span{{5, 25}}
	if got := subtractSpans(a, b); len(got) != 2 || got[0] != (Span{0, 5}) || got[1] != (Span{25, 30}) {
		t.Fatalf("subtract = %v", got)
	}
	if got := intersectSpans(a, b); len(got) != 2 || got[0] != (Span{5, 10}) || got[1] != (Span{20, 25}) {
		t.Fatalf("intersect = %v", got)
	}
	if got := normalizeSpans([]Span{{5, 7}, {0, 6}, {9, 9}}); len(got) != 1 || got[0] != (Span{0, 7}) {
		t.Fatalf("normalize = %v", got)
	}
	if got := totalSpans(a); got != 20 {
		t.Fatalf("total = %v", got)
	}
}

func TestOverlapMaskedFraction(t *testing.T) {
	evs := []Event{
		{PE: 0, Kind: EvSend, At: 0, MsgID: 1},
		{PE: 1, Kind: EvBegin, At: 0, MsgID: 9},
		{PE: 1, Kind: EvEnd, At: 6 * msTest, MsgID: 9},
		{PE: 1, Kind: EvEnqueue, At: 10 * msTest, MsgID: 1},
	}
	o := ComputeOverlap(evs, 2, 10*msTest)
	p := o.PEs[1]
	if p.Masked != 6*msTest || p.Exposed != 4*msTest {
		t.Fatalf("masked/exposed = %v/%v, want 6ms/4ms", p.Masked, p.Exposed)
	}
	if math.Abs(p.MaskedFraction()-0.6) > 1e-9 {
		t.Fatalf("masked fraction = %v, want 0.6", p.MaskedFraction())
	}
	if p.CommWait != 4*msTest || p.PureIdle != 0 {
		t.Fatalf("comm-wait/pure-idle = %v/%v, want 4ms/0", p.CommWait, p.PureIdle)
	}
	if p.Flights != 1 {
		t.Fatalf("flights = %d, want 1", p.Flights)
	}
	var buf bytes.Buffer
	o.Report(&buf)
	if !strings.Contains(buf.String(), "masked latency 60.0%") {
		t.Fatalf("report missing masked fraction:\n%s", buf.String())
	}
}

func TestOverlappingFlightsNotDoubleCounted(t *testing.T) {
	// Two flights toward PE 1 covering the same [0,10ms) air time; PE 1
	// busy throughout. Masked must be 10ms (union), not 20ms.
	evs := []Event{
		{PE: 0, Kind: EvSend, At: 0, MsgID: 1},
		{PE: 0, Kind: EvSend, At: 0, MsgID: 2},
		{PE: 1, Kind: EvBegin, At: 0, MsgID: 9},
		{PE: 1, Kind: EvEnqueue, At: 10 * msTest, MsgID: 1},
		{PE: 1, Kind: EvEnqueue, At: 10 * msTest, MsgID: 2},
		{PE: 1, Kind: EvEnd, At: 10 * msTest, MsgID: 9},
	}
	o := ComputeOverlap(evs, 2, 10*msTest)
	if p := o.PEs[1]; p.Masked != 10*msTest || p.Exposed != 0 {
		t.Fatalf("masked/exposed = %v/%v, want 10ms/0", p.Masked, p.Exposed)
	}
}

func TestStepOverlaps(t *testing.T) {
	evs := []Event{
		{PE: 0, Kind: EvNote, Note: "step", Arg1: 1, At: 0},
		{PE: 0, Kind: EvSend, At: 1 * msTest, MsgID: 1},
		{PE: 0, Kind: EvEnqueue, At: 3 * msTest, MsgID: 1},
		{PE: 0, Kind: EvNote, Note: "step", Arg1: 2, At: 10 * msTest},
		{PE: 0, Kind: EvSend, At: 11 * msTest, MsgID: 2},
		{PE: 0, Kind: EvEnqueue, At: 15 * msTest, MsgID: 2},
	}
	steps := StepOverlaps(evs, 1, 20*msTest)
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	if steps[0].Step != 1 || steps[1].Step != 2 {
		t.Fatalf("step labels = %d,%d", steps[0].Step, steps[1].Step)
	}
	if got := steps[0].Totals().Exposed; got != 2*msTest {
		t.Fatalf("step 1 exposed = %v, want 2ms", got)
	}
	if got := steps[1].Totals().Exposed; got != 4*msTest {
		t.Fatalf("step 2 exposed = %v, want 4ms", got)
	}
}

func TestCriticalPath(t *testing.T) {
	// msg 1 runs on PE 0 [0,5ms); its handler sends msg 2 at 1ms, which
	// flies 3ms, queues 2ms, and computes 3ms on PE 1.
	evs := []Event{
		{PE: 0, Kind: EvBegin, At: 0, MsgID: 1, MsgKind: 1},
		{PE: 0, Kind: EvSend, At: 1 * msTest, MsgID: 2, Parent: 1},
		{PE: 0, Kind: EvEnd, At: 5 * msTest, MsgID: 1},
		{PE: 1, Kind: EvEnqueue, At: 4 * msTest, MsgID: 2},
		{PE: 1, Kind: EvBegin, At: 6 * msTest, MsgID: 2},
		{PE: 1, Kind: EvEnd, At: 9 * msTest, MsgID: 2},
	}
	cp := CriticalPath(evs)
	if len(cp.Hops) != 2 {
		t.Fatalf("hops = %d, want 2", len(cp.Hops))
	}
	if cp.Hops[0].MsgID != 1 || cp.Hops[1].MsgID != 2 {
		t.Fatalf("hop order = %#x,%#x, want root first", cp.Hops[0].MsgID, cp.Hops[1].MsgID)
	}
	if cp.Compute != 8*msTest || cp.Flight != 3*msTest || cp.Queue != 2*msTest {
		t.Fatalf("compute/flight/queue = %v/%v/%v", cp.Compute, cp.Flight, cp.Queue)
	}
	if cp.Dominant() != "compute" {
		t.Fatalf("dominant = %s, want compute", cp.Dominant())
	}
	if cp.Total != 13*msTest {
		t.Fatalf("total = %v, want 13ms", cp.Total)
	}
	if cp.Clipped {
		t.Fatal("path clipped with full history present")
	}
	var buf bytes.Buffer
	cp.Report(&buf, nil)
	if !strings.Contains(buf.String(), "dominated by compute") {
		t.Fatalf("report:\n%s", buf.String())
	}
}

func TestCriticalPathMaskedFlight(t *testing.T) {
	// msg 2 flies 6ms toward PE 1; for 4ms of that flight PE 1 is busy
	// running msg 3 (another object's handler), so 4ms of the wire latency
	// is masked and only 2ms is exposed comm-wait.
	evs := []Event{
		{PE: 0, Kind: EvBegin, At: 0, MsgID: 1},
		{PE: 0, Kind: EvSend, At: 1 * msTest, MsgID: 2, Parent: 1},
		{PE: 0, Kind: EvEnd, At: 2 * msTest, MsgID: 1},
		{PE: 1, Kind: EvBegin, At: 2 * msTest, MsgID: 3},
		{PE: 1, Kind: EvEnd, At: 6 * msTest, MsgID: 3},
		{PE: 1, Kind: EvEnqueue, At: 7 * msTest, MsgID: 2},
		{PE: 1, Kind: EvBegin, At: 7 * msTest, MsgID: 2},
		{PE: 1, Kind: EvEnd, At: 8 * msTest, MsgID: 2},
	}
	cp := CriticalPath(evs)
	if cp.Flight != 6*msTest {
		t.Fatalf("flight = %v, want 6ms", cp.Flight)
	}
	if cp.Masked != 4*msTest || cp.Exposed != 2*msTest {
		t.Fatalf("masked/exposed = %v/%v, want 4ms/2ms", cp.Masked, cp.Exposed)
	}
	// Path compute = msg1's 2ms + msg2's 1ms = 3ms > 2ms exposed, so the
	// masked split flips dominance to compute even though raw flight (6ms)
	// is the largest single component.
	if got := cp.Dominant(); got != "compute" {
		t.Fatalf("dominant = %s", got)
	}
	if cp.Exposed != 2*msTest || cp.Total != 9*msTest {
		t.Fatalf("exposed %v of %v, want 2ms of a 9ms path", cp.Exposed, cp.Total)
	}
}

func TestCriticalPathClippedOnMissingParent(t *testing.T) {
	evs := []Event{
		{PE: 0, Kind: EvSend, At: 0, MsgID: 2, Parent: 99}, // parent 99 never traced
		{PE: 0, Kind: EvEnqueue, At: 1 * msTest, MsgID: 2},
		{PE: 0, Kind: EvBegin, At: 1 * msTest, MsgID: 2},
		{PE: 0, Kind: EvEnd, At: 2 * msTest, MsgID: 2},
	}
	cp := CriticalPath(evs)
	if !cp.Clipped {
		t.Fatal("expected clipped path")
	}
}

func TestSnapshotRoundTripAndMerge(t *testing.T) {
	tr := New(2)
	tr.Record(Event{PE: 0, Kind: EvSend, At: 1 * msTest, MsgID: 7, Parent: 3, MsgKind: 2})
	tr.Record(Event{PE: 1, Kind: EvEnqueue, At: 2 * msTest, MsgID: 7})
	var buf bytes.Buffer
	if err := tr.Snapshot(0, 0, 2, 5*msTest).Write(&buf); err != nil {
		t.Fatal(err)
	}
	s1, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &Snapshot{Node: 1, PELo: 2, PEHi: 4, Horizon: int64(9 * msTest),
		Events: []SnapEvent{{PE: 3, Kind: EvBegin, At: int64(3 * msTest), MsgID: 7}}}
	evs, numPE, horizon := Merge(s1, s2)
	if numPE != 4 || horizon != 9*msTest {
		t.Fatalf("numPE=%d horizon=%v", numPE, horizon)
	}
	if len(evs) != 3 || evs[0].MsgID != 7 || evs[0].Parent != 3 || evs[0].MsgKind != 2 {
		t.Fatalf("merged events = %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("merged events not time-sorted")
		}
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	evs := []Event{
		{PE: 0, Kind: EvBegin, At: 0, MsgID: 1},
		{PE: 0, Kind: EvSend, At: 1 * msTest, MsgID: 2, Parent: 1},
		{PE: 0, Kind: EvEnd, At: 2 * msTest, MsgID: 1},
		{PE: 1, Kind: EvEnqueue, At: 3 * msTest, MsgID: 2},
		{PE: 1, Kind: EvIdle, At: 4 * msTest, Arg1: int64(msTest)},
		{PE: 1, Kind: EvNote, At: 5 * msTest, Note: `st"ep`},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs, func(pe int) int { return pe / 1 }); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, e := range parsed {
		phases[e["ph"].(string)]++
	}
	if phases["X"] < 2 || phases["s"] != 1 || phases["f"] != 1 || phases["i"] < 1 {
		t.Fatalf("phase counts = %v", phases)
	}
}

func TestRenderTimelineEvents(t *testing.T) {
	evs := []Event{
		{PE: 0, Kind: EvBegin, At: 0},
		{PE: 0, Kind: EvEnd, At: 5 * msTest},
	}
	var buf bytes.Buffer
	RenderTimelineEvents(&buf, evs, 2, 10*msTest, 10)
	out := buf.String()
	if !strings.Contains(out, "PE   0 |█████     |") {
		t.Fatalf("timeline:\n%s", out)
	}
}

func TestMergeRebasesEpochs(t *testing.T) {
	base := int64(1_000_000_000_000)
	s0 := &Snapshot{
		Node: 0, PELo: 0, PEHi: 1, Horizon: int64(10 * msTest), EpochUnixNs: base,
		Events: []SnapEvent{{PE: 0, Kind: EvSend, At: int64(2 * msTest), MsgID: 1}},
	}
	s1 := &Snapshot{
		Node: 1, PELo: 1, PEHi: 2, Horizon: int64(10 * msTest), EpochUnixNs: base + int64(5*msTest),
		Events: []SnapEvent{{PE: 1, Kind: EvEnqueue, At: int64(0), MsgID: 1}},
	}
	evs, numPE, horizon := Merge(s0, s1)
	if numPE != 2 {
		t.Errorf("numPE = %d", numPE)
	}
	// Node 1 started 5ms after node 0, so its event lands at 5ms absolute.
	var enqAt time.Duration = -1
	for _, ev := range evs {
		if ev.Kind == EvEnqueue {
			enqAt = ev.At
		}
	}
	if enqAt != 5*msTest {
		t.Errorf("re-based enqueue at %v, want 5ms", enqAt)
	}
	if horizon != 15*msTest {
		t.Errorf("horizon %v, want 15ms", horizon)
	}

	// Without epochs, times pass through untouched.
	s1.EpochUnixNs = 0
	s0.EpochUnixNs = 0
	evs, _, horizon = Merge(s0, s1)
	for _, ev := range evs {
		if ev.Kind == EvEnqueue && ev.At != 0 {
			t.Errorf("epoch-less merge shifted event to %v", ev.At)
		}
	}
	if horizon != 10*msTest {
		t.Errorf("epoch-less horizon %v", horizon)
	}
}
