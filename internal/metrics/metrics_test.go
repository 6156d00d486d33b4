package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// countBuckets spans small cardinalities, for the tests' histograms.
var countBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("pe", "0"))
	b := r.Counter("x_total", L("pe", "0"))
	if a != b {
		t.Error("same (name, labels) returned distinct handles")
	}
	c := r.Counter("x_total", L("pe", "1"))
	if a == c {
		t.Error("distinct labels shared one handle")
	}
	// Label order must not affect identity: the rendering is sorted.
	d1 := r.Gauge("y", L("b", "2"), L("a", "1"))
	d2 := r.Gauge("y", L("a", "1"), L("b", "2"))
	if d1 != d2 {
		t.Error("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("series")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("series")
}

func TestFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("f_total", func() int64 { return 1 })
	r.CounterFunc("f_total", func() int64 { return 7 })
	if got := r.Snapshot().Value("f_total"); got != 7 {
		t.Errorf("after replacement value = %d, want 7 (fresh run's closure must win)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5126 {
		t.Errorf("sum = %d", h.Sum())
	}
	snap := r.Snapshot()
	bs := snap.Series[0].Bucket
	// Cumulative: <=10 holds 2, <=100 holds 4, <=1000 holds 4; the fifth
	// observation lives only in the implicit +Inf bucket (Count).
	want := []int64{2, 4, 4}
	for i, b := range bs {
		if b.Count != want[i] {
			t.Errorf("bucket le=%d count = %d, want %d", b.LE, b.Count, want[i])
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", countBuckets)
	r.CounterFunc("d", func() int64 { return 1 })
	r.GaugeFunc("e", func() int64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(9)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles returned nonzero values")
	}
	if err := r.Snapshot().WriteProm(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	if s := r.Snapshot(); len(s.Series) != 0 {
		t.Error("nil registry produced series")
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", L("pe", "0")).Add(3)
	r.Counter("a_total", L("pe", "1")).Add(4)
	r.Gauge("depth").Set(-2)
	r.Histogram("sz", []int64{8, 64}, L("dir", "out")).Observe(10)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_total counter\n",
		`a_total{pe="0"} 3` + "\n",
		`a_total{pe="1"} 4` + "\n",
		"# TYPE depth gauge\ndepth -2\n",
		"# TYPE sz histogram\n",
		`sz_bucket{dir="out",le="8"} 0` + "\n",
		`sz_bucket{dir="out",le="64"} 1` + "\n",
		`sz_bucket{dir="out",le="+Inf"} 1` + "\n",
		`sz_sum{dir="out"} 10` + "\n",
		`sz_count{dir="out"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per name, not per series.
	if strings.Count(out, "# TYPE a_total") != 1 {
		t.Error("duplicate TYPE lines for a_total")
	}
}

func TestSnapshotHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("pe", "0")).Add(2)
	r.Counter("c_total", L("pe", "1")).Add(5)
	r.Histogram("h", countBuckets).Observe(3)
	snap := r.Snapshot()
	if got := snap.Value("c_total"); got != 7 {
		t.Errorf("Value summed %d, want 7", got)
	}
	if got := snap.Value("h"); got != 1 {
		t.Errorf("histogram Value (count) = %d, want 1", got)
	}
	if !hasSeries(snap, "c_total") || hasSeries(snap, "missing") {
		t.Error("series lookup misreported")
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("prom body missing series: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json body: %v", err)
	}
	if snap.Value("hits_total") != 1 {
		t.Error("json snapshot missing hits_total")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total")
	g := r.Gauge("hw")
	h := r.Histogram("obs", countBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per-1 {
		t.Errorf("high-water = %d, want %d", g.Value(), workers*per-1)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d", h.Count())
	}
}

// TestUpdatesAllocateNothing pins the hot-path contract: updates on live
// and nil handles perform zero allocations.
func TestUpdatesAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.SetMax", func() { g.SetMax(9) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"nil Counter.Inc", func() { nilC.Inc() }},
		{"nil Gauge.Set", func() { nilG.Set(1) }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("tenant", "a"))
	g := r.Gauge("depth")
	h := r.Histogram("lat", countBuckets)
	c.Add(3)
	g.Set(5)
	h.Observe(2)
	before := r.Snapshot()
	c.Add(4)
	g.Set(9)
	h.Observe(2)
	h.Observe(200)
	r.Counter("fresh_total").Inc() // appears only after the baseline
	delta := r.Snapshot().Sub(before)

	if got := delta.Value("reqs_total"); got != 4 {
		t.Errorf("counter delta %d, want 4", got)
	}
	// Gauges are point-in-time: Sub keeps the current reading.
	if got := delta.Value("depth"); got != 9 {
		t.Errorf("gauge after Sub %d, want 9", got)
	}
	if got := delta.Value("lat"); got != 2 {
		t.Errorf("histogram count delta %d, want 2", got)
	}
	for _, smp := range delta.Series {
		if smp.Name != "lat" {
			continue
		}
		if smp.Sum != 202 {
			t.Errorf("histogram sum delta %d, want 202", smp.Sum)
		}
		for _, b := range smp.Bucket {
			if b.Count < 0 {
				t.Errorf("negative bucket delta at le=%d", b.LE)
			}
		}
	}
	// Series new since the baseline pass through whole.
	if got := delta.Value("fresh_total"); got != 1 {
		t.Errorf("fresh series %d, want 1", got)
	}
	// Series only in the baseline are dropped.
	if hasSeries(delta.Sub(delta), "gone") {
		t.Error("phantom series")
	}
}

func TestSnapshotFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", L("tenant", "acme"), L("pe", "0")).Add(1)
	r.Counter("jobs_total", L("tenant", "initech")).Add(2)
	r.Counter("unlabeled_total").Add(3)
	snap := r.Snapshot()

	acme := snap.Filter(L("tenant", "acme"))
	if len(acme.Series) != 1 || acme.Value("jobs_total") != 1 {
		t.Errorf("tenant filter kept %d series, value %d", len(acme.Series), acme.Value("jobs_total"))
	}
	// Multiple labels must all match.
	if n := len(snap.Filter(L("tenant", "acme"), L("pe", "1")).Series); n != 0 {
		t.Errorf("conjunctive filter kept %d series", n)
	}
	if n := len(snap.Filter(L("tenant", "none")).Series); n != 0 {
		t.Errorf("unknown label kept %d series", n)
	}
}

func TestNegotiateFormat(t *testing.T) {
	cases := []struct {
		url, accept, want string
		wantErr           bool
	}{
		{url: "/metrics", want: "prom"},
		{url: "/metrics?format=json", want: "json"},
		{url: "/metrics?format=prom", want: "prom"},
		{url: "/metrics?format=xml", wantErr: true},
		{url: "/metrics", accept: "application/json", want: "json"},
		{url: "/metrics", accept: "text/plain", want: "prom"},
		// ?format= beats Accept.
		{url: "/metrics?format=prom", accept: "application/json", want: "prom"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", tc.url, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		got, err := NegotiateFormat(req)
		if tc.wantErr != (err != nil) {
			t.Errorf("%s Accept=%q: err %v", tc.url, tc.accept, err)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("%s Accept=%q = %q, want %q", tc.url, tc.accept, got, tc.want)
		}
	}

	// The handler turns a bad format into a 400, not a panic.
	rec := httptest.NewRecorder()
	NewRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=xml", nil))
	if rec.Code != 400 {
		t.Errorf("bad format status %d, want 400", rec.Code)
	}
	if rec.Header().Get("Vary") != "Accept" {
		t.Error("missing Vary: Accept")
	}
}

// hasSeries reports whether any series named name exists.
func hasSeries(s Snapshot, name string) bool {
	for _, smp := range s.Series {
		if smp.Name == name {
			return true
		}
	}
	return false
}
