package telemetry

import (
	"errors"
	"testing"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/trace"
)

// testAgent builds an agent wired straight into a collector, returning
// the agent, its registry, its tracer, and a switch to drop reports.
func testAgent(t *testing.T, node int, coll *Collector, drop *bool) (*Agent, *metrics.Registry, *trace.Tracer) {
	t.Helper()
	reg := metrics.NewRegistry()
	tr := trace.New(2)
	a, err := NewAgent(AgentConfig{
		Node:     node,
		Registry: reg,
		Tracer:   tr,
		Epoch:    time.Unix(1_700_000_000+int64(node), 0), // distinct epochs per node
		NumPE:    2,
		Send: func(b []byte) error {
			if drop != nil && *drop {
				return nil // silently lost, like a dropped control frame
			}
			return coll.Ingest(b)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, reg, tr
}

func TestAgentFullAndDeltaConverge(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	a, reg, _ := testAgent(t, 0, coll, nil)
	c := reg.Counter("work_total")
	g := reg.Gauge("depth")

	c.Add(5)
	g.Set(3)
	if err := a.ReportOnce(); err != nil { // seq 1: full
		t.Fatal(err)
	}
	if got := coll.ClusterMetrics().Value("work_total"); got != 5 {
		t.Fatalf("after full: work_total = %d, want 5", got)
	}

	c.Add(2)
	g.Set(9)
	if err := a.ReportOnce(); err != nil { // seq 2: delta
		t.Fatal(err)
	}
	snap := coll.ClusterMetrics()
	if got := snap.Value("work_total"); got != 7 {
		t.Fatalf("after delta: work_total = %d, want 7", got)
	}
	if got := snap.Value("depth"); got != 9 {
		t.Fatalf("after delta: gauge = %d, want 9 (replaced, not added)", got)
	}

	// A delta with no changes still advances the chain.
	if err := a.ReportOnce(); err != nil { // seq 3
		t.Fatal(err)
	}
	if got := coll.ClusterMetrics().Value("work_total"); got != 7 {
		t.Fatalf("idle delta changed the view: %d", got)
	}
}

func TestCollectorToleratesDroppedReports(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	drop := false
	a, reg, _ := testAgent(t, 0, coll, &drop)
	c := reg.Counter("work_total")

	c.Add(10)
	_ = a.ReportOnce() // seq 1: full, delivered

	c.Add(1)
	drop = true
	_ = a.ReportOnce() // seq 2: delta, LOST
	drop = false

	c.Add(1)
	_ = a.ReportOnce() // seq 3: delta arrives with a broken chain
	// The collector must NOT have applied seq 3 (it would silently miss
	// seq 2's increment); it holds the stale value and counts a gap.
	if got := coll.ClusterMetrics().Value("work_total"); got != 10 {
		t.Fatalf("broken-chain delta applied: %d, want stale 10", got)
	}
	nodes := coll.Nodes()
	if len(nodes) != 1 || nodes[0].Gaps != 1 || nodes[0].MetricsFresh {
		t.Fatalf("gap not recorded: %+v", nodes)
	}

	// The next full snapshot (seq 5, as fullEvery is 4) self-heals.
	c.Add(1)
	_ = a.ReportOnce() // seq 4: delta, still gapped
	_ = a.ReportOnce() // seq 5: full
	if got := coll.ClusterMetrics().Value("work_total"); got != 13 {
		t.Fatalf("full snapshot did not heal the view: %d, want 13", got)
	}
	if nodes := coll.Nodes(); !nodes[0].MetricsFresh {
		t.Fatalf("chain not marked fresh after full: %+v", nodes)
	}
}

// TestAgentCountsSendErrors: every report Send rejects is counted on the
// agent's registry, so the loss shows up in the metrics it ships.
func TestAgentCountsSendErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	fail := 0
	a, err := NewAgent(AgentConfig{
		Registry: reg,
		Tracer:   trace.New(1),
		NumPE:    1,
		Send: func([]byte) error {
			if fail > 0 {
				fail--
				return errors.New("control path down")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	fail = n
	for i := 0; i < n+2; i++ {
		err := a.ReportOnce()
		if (err != nil) != (i < n) {
			t.Fatalf("report %d: err = %v, want an error only for the first %d", i, err, n)
		}
	}
	if got := reg.Snapshot().Value("telemetry_send_errors_total"); got != n {
		t.Errorf("telemetry_send_errors_total = %d, want %d", got, n)
	}
}

func TestClusterMetricsSumAcrossNodes(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	a0, r0, _ := testAgent(t, 0, coll, nil)
	a1, r1, _ := testAgent(t, 1, coll, nil)
	r0.Counter("tasks_total").Add(30)
	r1.Counter("tasks_total").Add(12)
	r0.Gauge("queue_depth").Set(4)
	r1.Gauge("queue_depth").Set(6)
	_ = a0.ReportOnce()
	_ = a1.ReportOnce()
	snap := coll.ClusterMetrics()
	if got := snap.Value("tasks_total"); got != 42 {
		t.Fatalf("cluster counter sum = %d, want 42", got)
	}
	// Gauges on independent nodes sum in the cluster view.
	if got := snap.Value("queue_depth"); got != 10 {
		t.Fatalf("cluster gauge sum = %d, want 10", got)
	}
}

func TestSpanMergeAcrossNodes(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	a0, _, tr0 := testAgent(t, 0, coll, nil)
	a1, _, tr1 := testAgent(t, 1, coll, nil)

	// Node 0 sends message 100 (child of 99); node 1 enqueues and runs it.
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: 10 * time.Millisecond, MsgID: 100, Parent: 99, MsgKind: 1})
	tr1.Record(trace.Event{PE: 1, Kind: trace.EvEnqueue, At: 14 * time.Millisecond, MsgID: 100})
	tr1.Record(trace.Event{PE: 1, Kind: trace.EvBegin, At: 15 * time.Millisecond, MsgID: 100, MsgKind: 1})
	tr1.Record(trace.Event{PE: 1, Kind: trace.EvEnd, At: 17 * time.Millisecond, MsgID: 100})
	_ = a0.ReportOnce()
	_ = a1.ReportOnce()

	coll.mu.Lock()
	rec := coll.spans[100]
	coll.mu.Unlock()
	if rec == nil {
		t.Fatal("span 100 not stored")
	}
	if rec.Parent != 99 {
		t.Errorf("parent = %d, want 99", rec.Parent)
	}
	if rec.Node != 1 {
		t.Errorf("span attributed to node %d, want 1 (execution side)", rec.Node)
	}
	// Times re-based onto each reporting node's epoch (epochs differ by 1s).
	wantSend := time.Unix(1_700_000_000, 0).UnixNano() + int64(10*time.Millisecond)
	wantBegin := time.Unix(1_700_000_001, 0).UnixNano() + int64(15*time.Millisecond)
	if rec.SendUnixNs != wantSend || rec.BeginUnixNs != wantBegin {
		t.Errorf("rebase: send=%d begin=%d, want %d/%d", rec.SendUnixNs, rec.BeginUnixNs, wantSend, wantBegin)
	}
	if rec.EndUnixNs == 0 {
		t.Error("end not merged")
	}
}

func TestJobTraceWalk(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	a0, _, tr0 := testAgent(t, 0, coll, nil)
	a1, _, tr1 := testAgent(t, 1, coll, nil)

	root := coll.JobAdmitted("job-1", "acme")
	if root&rootIDBase != rootIDBase {
		t.Fatalf("root %x lacks the root prefix", root)
	}
	// The gateway's pump injects message 200 carrying the job; the shard
	// grant (201) executes on node 1.
	coll.JobInjected(root, 200)
	coll.JobInjected(root, 200) // idempotent
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: 1 * time.Millisecond, MsgID: 200, Parent: root})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvBegin, At: 2 * time.Millisecond, MsgID: 200})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: 3 * time.Millisecond, MsgID: 201, Parent: 200})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvEnd, At: 3 * time.Millisecond, MsgID: 200})
	tr1.Record(trace.Event{PE: 1, Kind: trace.EvEnqueue, At: 8 * time.Millisecond, MsgID: 201})
	tr1.Record(trace.Event{PE: 1, Kind: trace.EvBegin, At: 9 * time.Millisecond, MsgID: 201})
	tr1.Record(trace.Event{PE: 1, Kind: trace.EvEnd, At: 12 * time.Millisecond, MsgID: 201})
	_ = a0.ReportOnce()
	_ = a1.ReportOnce()
	coll.JobDone("job-1", root, "acme", 15*time.Millisecond, false)

	doc, ok := coll.JobTrace("job-1")
	if !ok {
		t.Fatal("job-1 unknown")
	}
	if len(doc.Spans) != 3 { // root + injection + grant
		t.Fatalf("trace has %d spans, want 3: %+v", len(doc.Spans), doc.Spans)
	}
	if len(doc.Nodes) != 2 || doc.Nodes[0] != 0 || doc.Nodes[1] != 1 {
		t.Fatalf("trace nodes = %v, want [0 1]", doc.Nodes)
	}
	if !doc.Complete {
		t.Fatalf("trace not complete: %+v", doc)
	}
	// Every non-root span's parent is inside the tree — no broken links.
	inTree := map[uint64]bool{}
	for _, s := range doc.Spans {
		inTree[s.ID] = true
	}
	for _, s := range doc.Spans {
		if s.ID != root && s.Parent != 0 && !inTree[s.Parent] {
			t.Errorf("span %x has parent %x outside the tree", s.ID, s.Parent)
		}
	}

	if _, ok := coll.JobTrace("nope"); ok {
		t.Error("unknown job returned a trace")
	}
}

// TestJobTraceSharedInjection: the gateway's pump batches several jobs
// into one injection message, and that message's span can name only one
// of their roots as its parent. Each job's tree must still be closed —
// the shared span hangs under the walking job's own root — and walking
// one job must not rewrite what another sees.
func TestJobTraceSharedInjection(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	a0, _, tr0 := testAgent(t, 0, coll, nil)

	r1 := coll.JobAdmitted("job-1", "acme")
	r2 := coll.JobAdmitted("job-2", "acme")
	coll.JobInjected(r1, 200)
	coll.JobInjected(r2, 200)
	// The runtime stamps the message with the first job's root only.
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: 1 * time.Millisecond, MsgID: 200, Parent: r1})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvBegin, At: 2 * time.Millisecond, MsgID: 200})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: 3 * time.Millisecond, MsgID: 201, Parent: 200})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvEnd, At: 3 * time.Millisecond, MsgID: 200})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvBegin, At: 4 * time.Millisecond, MsgID: 201})
	tr0.Record(trace.Event{PE: 0, Kind: trace.EvEnd, At: 5 * time.Millisecond, MsgID: 201})
	_ = a0.ReportOnce()

	for _, job := range []struct {
		id   string
		root uint64
	}{{"job-2", r2}, {"job-1", r1}, {"job-2", r2}} {
		doc, ok := coll.JobTrace(job.id)
		if !ok {
			t.Fatalf("%s unknown", job.id)
		}
		if len(doc.Spans) != 3 { // root + shared injection + grant
			t.Fatalf("%s: trace has %d spans, want 3: %+v", job.id, len(doc.Spans), doc.Spans)
		}
		inTree := map[uint64]bool{}
		for _, s := range doc.Spans {
			inTree[s.ID] = true
		}
		for _, s := range doc.Spans {
			if s.ID != job.root && !inTree[s.Parent] {
				t.Errorf("%s: span %#x has broken parent link %#x", job.id, s.ID, s.Parent)
			}
			if s.ID == 200 && s.Parent != job.root {
				t.Errorf("%s: injection span parented at %#x, want this job's root %#x", job.id, s.Parent, job.root)
			}
		}
	}
}

func TestStepOverlapAggregation(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	mk := func(node int) (*Agent, *trace.Tracer) {
		a, _, tr := testAgent(t, node, coll, nil)
		return a, tr
	}
	a0, tr0 := mk(0)
	a1, tr1 := mk(1)

	// Each node: one step mark, a flight masked by handler work.
	for i, tr := range []*trace.Tracer{tr0, tr1} {
		base := time.Duration(0)
		tr.Record(trace.Event{PE: 0, Kind: trace.EvNote, Note: "step", Arg1: 1, At: base})
		tr.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: base + 1*time.Millisecond, MsgID: uint64(1000 + i)})
		tr.Record(trace.Event{PE: 1, Kind: trace.EvBegin, At: base + 1*time.Millisecond, MsgID: uint64(2000 + i)})
		tr.Record(trace.Event{PE: 1, Kind: trace.EvEnd, At: base + 5*time.Millisecond, MsgID: uint64(2000 + i)})
		tr.Record(trace.Event{PE: 1, Kind: trace.EvEnqueue, At: base + 4*time.Millisecond, MsgID: uint64(1000 + i)})
	}
	_ = a0.ReportOnce()
	_ = a1.ReportOnce()

	steps := coll.ClusterOverlap()
	if len(steps) != 1 || steps[0].Step != 1 {
		t.Fatalf("cluster overlap rows: %+v", steps)
	}
	if steps[0].Nodes != 2 {
		t.Fatalf("step 1 aggregated %d nodes, want 2", steps[0].Nodes)
	}
	// Flight 1ms→4ms toward PE 1 which was busy 1ms→5ms: fully masked.
	if steps[0].MaskedNs <= 0 || steps[0].ExposedNs != 0 {
		t.Fatalf("masked/exposed = %d/%d, want all masked", steps[0].MaskedNs, steps[0].ExposedNs)
	}
	if steps[0].MaskedFrac != 1 {
		t.Fatalf("masked fraction %v, want 1", steps[0].MaskedFrac)
	}

	// Re-reporting the same step replaces, not doubles.
	_ = a0.ReportOnce()
	steps = coll.ClusterOverlap()
	if steps[0].Nodes != 2 {
		t.Fatalf("replace semantics broken: %+v", steps)
	}
}

func TestAgentSpanEviction(t *testing.T) {
	coll := NewCollector(CollectorConfig{})
	reg := metrics.NewRegistry()
	tr := trace.New(1)
	a, err := NewAgent(AgentConfig{
		Node: 0, Registry: reg, Tracer: tr, NumPE: 1,
		Send: func(b []byte) error { return coll.Ingest(b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// One open span (no End) past the bound: the agent must bound its
	// map at maxSpans by evicting the oldest.
	for i := 1; i <= maxSpans+1; i++ {
		tr.Record(trace.Event{PE: 0, Kind: trace.EvSend, At: time.Duration(i), MsgID: uint64(i)})
	}
	_ = a.ReportOnce()
	a.mu.Lock()
	n := len(a.spans)
	_, oldest := a.spans[1]
	a.mu.Unlock()
	if n > maxSpans {
		t.Fatalf("agent holds %d spans, bound is %d", n, maxSpans)
	}
	if oldest {
		t.Error("the oldest span survived the bound; eviction is not oldest-first")
	}
	// Completed spans leave the map once fully resent. Span 2 is now the
	// oldest, so every report ships it first.
	tr.Record(trace.Event{PE: 0, Kind: trace.EvEnd, At: time.Duration(maxSpans + 2), MsgID: 2})
	_ = a.ReportOnce()
	_ = a.ReportOnce()
	a.mu.Lock()
	_, still := a.spans[2]
	a.mu.Unlock()
	if still {
		t.Error("completed, fully-resent span not evicted")
	}
}

func TestHealthConditions(t *testing.T) {
	h := NewHealth()
	if p := h.Problems(); len(p) != 0 {
		t.Fatalf("fresh health has problems: %v", p)
	}
	h.Set("draining", "SIGTERM received")
	if p := h.Problems(); len(p) != 1 {
		t.Fatalf("condition not raised: %v", p)
	}
	h.Set("draining", "")
	if p := h.Problems(); len(p) != 0 {
		t.Fatalf("condition not cleared: %v", p)
	}
	bad := false
	h.AddCheck("membership", func() error {
		if bad {
			return errTest
		}
		return nil
	})
	if p := h.Problems(); len(p) != 0 {
		t.Fatalf("passing check reported: %v", p)
	}
	bad = true
	if p := h.Problems(); len(p) != 1 {
		t.Fatalf("failing check not reported: %v", p)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "not active" }
