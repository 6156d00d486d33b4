package telemetry

import (
	"sort"
	"sync"
	"time"

	"gridmdo/internal/metrics"
)

// Collector bounds.
const (
	// maxStoredSpans bounds the span store; the oldest span is evicted.
	maxStoredSpans = 1 << 17

	// maxJobRoots bounds the job-id → root span map; the oldest job is
	// forgotten.
	maxJobRoots = 1 << 16

	// maxTraceSpans caps one job-trace walk, so a pathological span graph
	// cannot make the HTTP endpoint allocate without bound.
	maxTraceSpans = 4096

	// rootIDBase is the high-bits prefix of collector-allocated job-root
	// span IDs. Runtime message IDs carry their node number in the high
	// 16 bits; 0xFFFE is far above any real node, so roots can never
	// collide with a message.
	rootIDBase = uint64(0xFFFE) << 48
)

// CollectorConfig configures a collector. All fields are optional.
type CollectorConfig struct {
	SLO *SLOTracker // job latencies feed it when set
}

// nodeState is the collector's view of one reporting agent.
type nodeState struct {
	snap        metrics.Snapshot
	lastSeq     uint64
	haveFull    bool // a full snapshot arrived and the delta chain is unbroken
	gaps        uint64
	epochUnixNs int64
	horizonNs   int64
	dropped     uint64
	lastReport  time.Time
	reports     uint64
}

// SpanRecord is one merged span in the collector's store. Times are wall
// clock (UnixNano), re-based from each report's node epoch, so spans
// from different processes share one time base (up to OS clock sync).
// Node is the node that executed the handler (the report carrying
// BeginNs), -1 until an execution half arrives.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Node   int32  `json:"node"`
	PE     int32  `json:"pe"`
	Kind   byte   `json:"kind"`

	SendUnixNs    int64 `json:"send_ns,omitempty"`
	EnqueueUnixNs int64 `json:"enqueue_ns,omitempty"`
	BeginUnixNs   int64 `json:"begin_ns,omitempty"`
	EndUnixNs     int64 `json:"end_ns,omitempty"`
}

// NodeStatus is one node's liveness row in the cluster health view.
type NodeStatus struct {
	Node         int32  `json:"node"`
	Reports      uint64 `json:"reports"`
	LastSeq      uint64 `json:"last_seq"`
	Gaps         uint64 `json:"gaps"`    // delta-chain breaks observed (dropped control frames)
	Dropped      uint64 `json:"dropped"` // trace events the agent itself lost
	AgeMs        int64  `json:"age_ms"`  // since the last report arrived
	HorizonMs    int64  `json:"horizon_ms"`
	MetricsFresh bool   `json:"metrics_fresh"` // delta chain intact since the last full
}

// JobTraceDoc is the span tree of one gateway job, walked from its
// admission root.
type JobTraceDoc struct {
	JobID string       `json:"job_id"`
	Root  uint64       `json:"root"`
	Spans []SpanRecord `json:"spans"`
	Nodes []int        `json:"nodes"` // distinct executing nodes, sorted

	// Complete: the root has ended, the tree extends beyond the root, and
	// every span in it has been observed to finish. Under control-frame
	// drops a tree can be retrieved while still partial; the bench's
	// completeness ratio counts this flag.
	Complete bool `json:"complete"`
}

// Collector merges agents' telemetry reports into a live cluster view.
// One collector per cluster; all methods are safe for concurrent use.
// It also implements the gateway's trace-observer hooks (JobAdmitted,
// JobInjected, JobDone), stitching HTTP-side job roots onto the runtime
// span stream.
type Collector struct {
	cfg CollectorConfig

	mu        sync.Mutex
	nodes     map[int32]*nodeState
	spans     map[uint64]*SpanRecord
	spanOrder []uint64
	children  map[uint64][]uint64
	steps     map[int32]map[int64]StepOverlap // per node, per step; replace on arrival
	jobRoots  map[string]uint64
	jobOrder  []string
	rootSeq   uint64
	badWire   uint64
}

// NewCollector builds a collector.
func NewCollector(cfg CollectorConfig) *Collector {
	return &Collector{
		cfg:      cfg,
		nodes:    make(map[int32]*nodeState),
		spans:    make(map[uint64]*SpanRecord),
		children: make(map[uint64][]uint64),
		steps:    make(map[int32]map[int64]StepOverlap),
		jobRoots: make(map[string]uint64),
	}
}

// SLO exposes the tracker (nil when SLO tracking is off).
func (c *Collector) SLO() *SLOTracker { return c.cfg.SLO }

// Ingest decodes and applies one wire report. Malformed input is counted
// and rejected whole. Safe to call from a transport read goroutine — it
// only takes the collector lock.
func (c *Collector) Ingest(b []byte) error {
	r, err := DecodeReport(b)
	if err != nil {
		c.mu.Lock()
		c.badWire++
		c.mu.Unlock()
		return err
	}
	c.Apply(r)
	return nil
}

// Apply merges one decoded report.
func (c *Collector) Apply(r *Report) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	ns := c.nodes[r.Node]
	if ns == nil {
		ns = &nodeState{}
		c.nodes[r.Node] = ns
	}
	if r.Seq <= ns.lastSeq && ns.reports > 0 {
		// Duplicate or reordered frame; the metrics chain can't use it,
		// but spans and steps merge idempotently.
		c.applySpans(r)
		c.applySteps(r)
		return
	}

	switch {
	case r.Full:
		ns.snap = metrics.Snapshot{Series: r.Metrics}
		ns.haveFull = true
	case ns.haveFull && r.Seq == ns.lastSeq+1:
		ns.snap = ns.snap.Merge(metrics.Snapshot{Series: r.Metrics})
	default:
		// Broken delta chain: at least one report was lost. Hold the
		// stale snapshot and wait for the next full one.
		ns.gaps++
		ns.haveFull = false
	}
	ns.lastSeq = r.Seq
	ns.epochUnixNs = r.EpochUnixNs
	ns.horizonNs = r.HorizonNs
	ns.dropped = r.Dropped
	ns.lastReport = now
	ns.reports++

	c.applySpans(r)
	c.applySteps(r)
}

// applySpans merges a report's span digests (caller holds the lock).
// Nonzero-wins per field makes the merge idempotent, so resent digests
// and duplicate frames are harmless.
func (c *Collector) applySpans(r *Report) {
	for _, sp := range r.Spans {
		rec := c.spans[sp.ID]
		if rec == nil {
			if len(c.spans) >= maxStoredSpans {
				c.evictOldestSpan()
			}
			rec = &SpanRecord{ID: sp.ID, Node: -1}
			c.spans[sp.ID] = rec
			c.spanOrder = append(c.spanOrder, sp.ID)
		}
		if sp.Parent != 0 && rec.Parent == 0 {
			rec.Parent = sp.Parent
			c.children[sp.Parent] = append(c.children[sp.Parent], sp.ID)
		}
		if sp.Kind != 0 && rec.Kind == 0 {
			rec.Kind = sp.Kind
		}
		rebase := func(ns int64) int64 {
			if ns == 0 {
				return 0
			}
			return r.EpochUnixNs + ns
		}
		if sp.SendNs != 0 && rec.SendUnixNs == 0 {
			rec.SendUnixNs = rebase(sp.SendNs)
		}
		if sp.EnqueueNs != 0 && rec.EnqueueUnixNs == 0 {
			rec.EnqueueUnixNs = rebase(sp.EnqueueNs)
		}
		if sp.BeginNs != 0 && rec.BeginUnixNs == 0 {
			rec.BeginUnixNs = rebase(sp.BeginNs)
			// The execution half comes from the node that ran the
			// handler; that is the span's home for attribution.
			rec.Node = r.Node
			rec.PE = sp.PE
		}
		if sp.EndNs != 0 && rec.EndUnixNs == 0 {
			rec.EndUnixNs = rebase(sp.EndNs)
		}
	}
}

// applySteps stores a report's per-step overlap rows, replacing earlier
// rows for the same (node, step) — a step reprofiled with more of its
// events in view supersedes the partial row (caller holds the lock).
func (c *Collector) applySteps(r *Report) {
	if len(r.Steps) == 0 {
		return
	}
	m := c.steps[r.Node]
	if m == nil {
		m = make(map[int64]StepOverlap)
		c.steps[r.Node] = m
	}
	for _, st := range r.Steps {
		m[st.Step] = st
	}
}

// evictOldestSpan drops the oldest stored span (caller holds the lock).
func (c *Collector) evictOldestSpan() {
	for len(c.spanOrder) > 0 {
		id := c.spanOrder[0]
		c.spanOrder = c.spanOrder[1:]
		rec, ok := c.spans[id]
		if !ok {
			continue
		}
		delete(c.spans, id)
		if rec.Parent != 0 {
			c.children[rec.Parent] = removeID(c.children[rec.Parent], id)
			if len(c.children[rec.Parent]) == 0 {
				delete(c.children, rec.Parent)
			}
		}
		delete(c.children, id)
		return
	}
}

func removeID(ids []uint64, id uint64) []uint64 {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// ClusterMetrics aggregates every node's current snapshot into one
// cluster view: counters and histograms sum across nodes (each node
// counted its own share of the work), and gauges sum too — a gauge like
// queue depth on independent node instances adds to the cluster total.
// This is deliberately not metrics.Merge, whose gauge-replace semantics
// apply deltas from ONE source over time; here the sources are distinct.
func (c *Collector) ClusterMetrics() metrics.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	type key struct{ name, labels string }
	idx := make(map[key]int)
	var out metrics.Snapshot
	nodeIDs := sortedNodes(c.nodes)
	for _, n := range nodeIDs {
		for _, s := range c.nodes[n].snap.Series {
			k := key{s.Name, s.Labels}
			i, ok := idx[k]
			if !ok {
				idx[k] = len(out.Series)
				cp := s
				cp.Bucket = append([]metrics.Bucket(nil), s.Bucket...)
				out.Series = append(out.Series, cp)
				continue
			}
			dst := &out.Series[i]
			if dst.Kind != s.Kind {
				continue // conflicting registration across nodes; first wins
			}
			dst.Value += s.Value
			dst.Count += s.Count
			dst.Sum += s.Sum
			if len(dst.Bucket) == len(s.Bucket) {
				for j := range dst.Bucket {
					dst.Bucket[j].Count += s.Bucket[j].Count
				}
			}
		}
	}
	sort.Slice(out.Series, func(i, j int) bool {
		a, b := out.Series[i], out.Series[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	return out
}

// ClusterStep is one application step summed across every node.
type ClusterStep struct {
	Step       int64   `json:"step"`
	ComputeNs  int64   `json:"compute_ns"`
	MaskedNs   int64   `json:"masked_ns"`
	ExposedNs  int64   `json:"exposed_ns"`
	MaskedFrac float64 `json:"masked_frac"` // masked / (masked+exposed), 0 if nothing in flight
	Nodes      int     `json:"nodes"`       // nodes that reported this step
}

// ClusterOverlap sums the per-step masked/exposed accounting across all
// nodes — the paper's headline number, live. Rows sort by step.
func (c *Collector) ClusterOverlap() []ClusterStep {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := make(map[int64]*ClusterStep)
	for _, m := range c.steps {
		for step, st := range m {
			a := agg[step]
			if a == nil {
				a = &ClusterStep{Step: step}
				agg[step] = a
			}
			a.ComputeNs += st.ComputeNs
			a.MaskedNs += st.MaskedNs
			a.ExposedNs += st.ExposedNs
			a.Nodes++
		}
	}
	out := make([]ClusterStep, 0, len(agg))
	for _, a := range agg {
		if t := a.MaskedNs + a.ExposedNs; t > 0 {
			a.MaskedFrac = float64(a.MaskedNs) / float64(t)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Nodes reports one status row per reporting node, sorted by node.
func (c *Collector) Nodes() []NodeStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.nodes))
	for _, n := range sortedNodes(c.nodes) {
		ns := c.nodes[n]
		out = append(out, NodeStatus{
			Node:         n,
			Reports:      ns.reports,
			LastSeq:      ns.lastSeq,
			Gaps:         ns.gaps,
			Dropped:      ns.dropped,
			AgeMs:        now.Sub(ns.lastReport).Milliseconds(),
			HorizonMs:    ns.horizonNs / int64(time.Millisecond),
			MetricsFresh: ns.haveFull,
		})
	}
	return out
}

// BadWire reports how many ingested payloads failed to decode.
func (c *Collector) BadWire() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.badWire
}

// JobAdmitted implements the gateway's observer hook: it allocates a
// root span for a newly admitted job, stamped with the wall-clock
// admission time. Runs under the gateway's lock — cheap by design.
func (c *Collector) JobAdmitted(jobID, tenant string) uint64 {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rootSeq++
	root := rootIDBase | c.rootSeq
	if len(c.spans) >= maxStoredSpans {
		c.evictOldestSpan()
	}
	c.spans[root] = &SpanRecord{ID: root, Node: -1, BeginUnixNs: now}
	c.spanOrder = append(c.spanOrder, root)
	for len(c.jobRoots) >= maxJobRoots && len(c.jobOrder) > 0 {
		delete(c.jobRoots, c.jobOrder[0])
		c.jobOrder = c.jobOrder[1:]
	}
	c.jobRoots[jobID] = root
	c.jobOrder = append(c.jobOrder, jobID)
	return root
}

// JobInjected links the runtime message that carried a job into the farm
// under the job's root span. Several jobs batch into one injection
// message, so several roots may adopt the same message as a child; the
// message's own span names only one of them as Parent, and JobTrace
// re-parents it per walking job.
func (c *Collector) JobInjected(root, msgID uint64) {
	if root == 0 || msgID == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.children[root] {
		if id == msgID {
			return
		}
	}
	c.children[root] = append(c.children[root], msgID)
}

// JobDone closes a job's root span and feeds the SLO tracker.
func (c *Collector) JobDone(jobID string, root uint64, tenant string, latency time.Duration, failed bool) {
	now := time.Now()
	c.mu.Lock()
	if rec := c.spans[root]; rec != nil && rec.EndUnixNs == 0 {
		rec.EndUnixNs = now.UnixNano()
	}
	c.mu.Unlock()
	c.cfg.SLO.Record(tenant, now, latency, failed)
}

// JobTrace walks a job's span tree from its admission root. The second
// result is false when the job is unknown (never admitted here, or its
// root aged out).
func (c *Collector) JobTrace(jobID string) (*JobTraceDoc, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	root, ok := c.jobRoots[jobID]
	if !ok {
		return nil, false
	}
	doc := &JobTraceDoc{JobID: jobID, Root: root}
	// Each queued span remembers the edge it was reached by. For a span
	// linked through its own Parent that is the recorded parent; for an
	// injection message shared by several batched jobs (JobInjected) it is
	// this job's root, whichever root the message itself names.
	type edge struct{ id, via uint64 }
	seen := make(map[uint64]bool)
	queue := []edge{{id: root}}
	nodes := make(map[int]bool)
	allEnded := true
	for len(queue) > 0 && len(doc.Spans) < maxTraceSpans {
		id, via := queue[0].id, queue[0].via
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		if rec := c.spans[id]; rec != nil {
			span := *rec // a copy: re-parenting never touches the stored span
			if id != root {
				span.Parent = via
			}
			doc.Spans = append(doc.Spans, span)
			if rec.Node >= 0 {
				nodes[int(rec.Node)] = true
			}
			if rec.EndUnixNs == 0 {
				allEnded = false
			}
		} else if id != root {
			// A child edge points at a span we never received (dropped
			// frames): the tree is incomplete but still walkable.
			allEnded = false
		}
		for _, child := range c.children[id] {
			queue = append(queue, edge{id: child, via: id})
		}
	}
	doc.Nodes = make([]int, 0, len(nodes))
	for n := range nodes {
		doc.Nodes = append(doc.Nodes, n)
	}
	sort.Ints(doc.Nodes)
	doc.Complete = allEnded && len(doc.Spans) > 1
	sort.Slice(doc.Spans, func(i, j int) bool { return spanStart(doc.Spans[i]) < spanStart(doc.Spans[j]) })
	return doc, true
}

// spanStart is a span's earliest observed instant, for display ordering.
func spanStart(s SpanRecord) int64 {
	for _, t := range []int64{s.SendUnixNs, s.EnqueueUnixNs, s.BeginUnixNs, s.EndUnixNs} {
		if t != 0 {
			return t
		}
	}
	return 0
}

func sortedNodes(m map[int32]*nodeState) []int32 {
	out := make([]int32, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
