package metrics

import (
	"sort"
	"testing"
)

// mkSample builds a Sample literal for table tests without a registry.
func mkSample(name, labels, kind string, value int64) Sample {
	return Sample{Name: name, Labels: labels, Kind: kind, Value: value}
}

func TestSnapshotSubCounterResetClamps(t *testing.T) {
	// A counter that went backwards (source process restarted between
	// snapshots) must clamp to zero, not go negative.
	prev := Snapshot{Series: []Sample{mkSample("reqs_total", "", "counter", 100)}}
	cur := Snapshot{Series: []Sample{mkSample("reqs_total", "", "counter", 7)}}
	d := cur.Sub(prev)
	if got := d.Value("reqs_total"); got != 0 {
		t.Errorf("reset counter delta %d, want 0 (clamped)", got)
	}

	// Same for histogram counts, sums, and per-bucket counts.
	prevH := Snapshot{Series: []Sample{{
		Name: "lat", Kind: "histogram", Count: 50, Sum: 500,
		Bucket: []Bucket{{LE: 10, Count: 20}, {LE: 100, Count: 50}},
	}}}
	curH := Snapshot{Series: []Sample{{
		Name: "lat", Kind: "histogram", Count: 5, Sum: 40,
		Bucket: []Bucket{{LE: 10, Count: 2}, {LE: 100, Count: 5}},
	}}}
	d = curH.Sub(prevH)
	smp := d.Series[0]
	if smp.Count != 0 || smp.Sum != 0 {
		t.Errorf("reset histogram delta count=%d sum=%d, want 0/0", smp.Count, smp.Sum)
	}
	for _, b := range smp.Bucket {
		if b.Count != 0 {
			t.Errorf("reset bucket le=%d delta %d, want 0", b.LE, b.Count)
		}
	}
}

func TestSnapshotSubOneSidedSeries(t *testing.T) {
	prev := Snapshot{Series: []Sample{
		mkSample("gone_total", "", "counter", 9),
		mkSample("both_total", "", "counter", 1),
	}}
	cur := Snapshot{Series: []Sample{
		mkSample("both_total", "", "counter", 4),
		mkSample("fresh_total", "", "counter", 2),
	}}
	d := cur.Sub(prev)
	if hasSeries(d, "gone_total") {
		t.Error("series only in prev survived Sub")
	}
	if got := d.Value("fresh_total"); got != 2 {
		t.Errorf("series only in cur = %d, want 2 (pass through)", got)
	}
	if got := d.Value("both_total"); got != 3 {
		t.Errorf("shared series delta %d, want 3", got)
	}
}

func TestSnapshotSubBucketMismatch(t *testing.T) {
	// Re-bucketed histogram: no element-wise delta is meaningful, so the
	// current cumulative buckets pass through, while count/sum still
	// subtract.
	prev := Snapshot{Series: []Sample{{
		Name: "lat", Kind: "histogram", Count: 3, Sum: 30,
		Bucket: []Bucket{{LE: 10, Count: 1}},
	}}}
	cur := Snapshot{Series: []Sample{{
		Name: "lat", Kind: "histogram", Count: 8, Sum: 90,
		Bucket: []Bucket{{LE: 10, Count: 2}, {LE: 100, Count: 8}},
	}}}
	d := cur.Sub(prev)
	smp := d.Series[0]
	if smp.Count != 5 || smp.Sum != 60 {
		t.Errorf("count=%d sum=%d, want 5/60", smp.Count, smp.Sum)
	}
	if len(smp.Bucket) != 2 || smp.Bucket[0].Count != 2 || smp.Bucket[1].Count != 8 {
		t.Errorf("mismatched buckets not passed through: %+v", smp.Bucket)
	}
}

func TestSnapshotFilterEmpty(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", L("tenant", "x")).Inc()
	r.Counter("b_total").Inc()
	snap := r.Snapshot()

	// No labels: everything matches (the conjunction over zero terms).
	all := snap.Filter()
	if len(all.Series) != len(snap.Series) {
		t.Errorf("empty filter kept %d of %d series", len(all.Series), len(snap.Series))
	}

	// Filtering an empty snapshot yields an empty snapshot, not a panic.
	if n := len(Snapshot{}.Filter(L("tenant", "x")).Series); n != 0 {
		t.Errorf("filter of empty snapshot kept %d series", n)
	}
}

func TestSnapshotMerge(t *testing.T) {
	base := Snapshot{Series: []Sample{
		mkSample("a_total", "", "counter", 10),
		mkSample("depth", "", "gauge", 5),
		{Name: "lat", Kind: "histogram", Count: 4, Sum: 40,
			Bucket: []Bucket{{LE: 10, Count: 1}, {LE: 100, Count: 4}}},
	}}
	delta := Snapshot{Series: []Sample{
		mkSample("a_total", "", "counter", 3),
		mkSample("depth", "", "gauge", 2),
		{Name: "lat", Kind: "histogram", Count: 2, Sum: 25,
			Bucket: []Bucket{{LE: 10, Count: 1}, {LE: 100, Count: 2}}},
		mkSample("new_total", "", "counter", 7),
	}}
	m := base.Merge(delta)

	if got := m.Value("a_total"); got != 13 {
		t.Errorf("counter merged to %d, want 13", got)
	}
	// Gauges take the delta's (newer) reading, they do not add.
	if got := m.Value("depth"); got != 2 {
		t.Errorf("gauge merged to %d, want 2", got)
	}
	if got := m.Value("new_total"); got != 7 {
		t.Errorf("delta-only series merged to %d, want 7", got)
	}
	for _, smp := range m.Series {
		if smp.Name != "lat" {
			continue
		}
		if smp.Count != 6 || smp.Sum != 65 {
			t.Errorf("histogram merged count=%d sum=%d, want 6/65", smp.Count, smp.Sum)
		}
		if smp.Bucket[0].Count != 2 || smp.Bucket[1].Count != 6 {
			t.Errorf("histogram buckets merged to %+v", smp.Bucket)
		}
	}
	if !sort.SliceIsSorted(m.Series, func(i, j int) bool {
		a, b := m.Series[i], m.Series[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	}) {
		t.Error("merged snapshot lost canonical order")
	}

	// Merge is Sub's inverse: applying a registry's own delta to the
	// baseline reproduces the current snapshot (for counters/histograms;
	// gauges converge because Sub keeps the current reading).
	r := NewRegistry()
	c := r.Counter("x_total")
	h := r.Histogram("h", countBuckets)
	g := r.Gauge("g")
	c.Add(2)
	h.Observe(3)
	g.Set(4)
	before := r.Snapshot()
	c.Add(5)
	h.Observe(7)
	g.Set(1)
	after := r.Snapshot()
	round := before.Merge(after.Sub(before))
	if got, want := round.Value("x_total"), after.Value("x_total"); got != want {
		t.Errorf("round-trip counter %d, want %d", got, want)
	}
	if got, want := round.Value("h"), after.Value("h"); got != want {
		t.Errorf("round-trip histogram count %d, want %d", got, want)
	}
	if got, want := round.Value("g"), after.Value("g"); got != want {
		t.Errorf("round-trip gauge %d, want %d", got, want)
	}
}

func TestSnapshotMergeBucketMismatch(t *testing.T) {
	base := Snapshot{Series: []Sample{{
		Name: "lat", Kind: "histogram", Count: 4, Sum: 40,
		Bucket: []Bucket{{LE: 10, Count: 4}},
	}}}
	delta := Snapshot{Series: []Sample{{
		Name: "lat", Kind: "histogram", Count: 2, Sum: 20,
		Bucket: []Bucket{{LE: 10, Count: 1}, {LE: 100, Count: 2}},
	}}}
	m := base.Merge(delta)
	smp := m.Series[0]
	if smp.Count != 6 || smp.Sum != 60 {
		t.Errorf("count=%d sum=%d, want 6/60", smp.Count, smp.Sum)
	}
	// The delta's newer bucket layout wins wholesale.
	if len(smp.Bucket) != 2 || smp.Bucket[1].LE != 100 {
		t.Errorf("bucket layout after mismatch merge: %+v", smp.Bucket)
	}
}
