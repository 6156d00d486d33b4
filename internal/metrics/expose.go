package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Collection: Prometheus text exposition, structured JSON snapshots, and
// an HTTP handler serving both. Collection walks the registry under its
// lock and invokes Func metrics; a Func callback must not register new
// metrics (it would deadlock) — closures read their component's own state
// only.

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    int64 `json:"le"`    // upper bound; the +Inf bucket is omitted (implied by Count)
	Count int64 `json:"count"` // observations <= LE (cumulative)
}

// Sample is one series' state at snapshot time.
type Sample struct {
	Name   string   `json:"name"`
	Labels string   `json:"labels,omitempty"` // canonical {k="v",…} rendering
	Kind   string   `json:"kind"`
	Value  int64    `json:"value,omitempty"` // counters and gauges
	Count  int64    `json:"count,omitempty"` // histograms
	Sum    int64    `json:"sum,omitempty"`   // histograms
	Bucket []Bucket `json:"buckets,omitempty"`
}

// Snapshot is the full registry state at one instant, ordered by
// (name, labels). It is the structure the benchmark harness writes next
// to its results.
type Snapshot struct {
	Series []Sample `json:"series"`
}

// Value sums every series named name (across label sets); histograms
// contribute their observation count. Missing names return 0.
func (s Snapshot) Value(name string) int64 {
	var v int64
	for _, smp := range s.Series {
		if smp.Name != name {
			continue
		}
		if smp.Kind == KindHistogram.String() {
			v += smp.Count
		} else {
			v += smp.Value
		}
	}
	return v
}

// Sub returns the delta snapshot s − prev: each series' counters (and
// histogram counts, sums, and buckets) minus the matching series in
// prev. Series absent from prev pass through unchanged; series present
// only in prev are dropped (they cannot have advanced). Gauges are
// point-in-time readings, not accumulations, so they keep s's value.
// A negative delta — the source counter was reset, as when a process
// restarts between snapshots — clamps to zero rather than underflowing;
// a histogram whose bucket layout changed between snapshots keeps s's
// cumulative buckets (there is no meaningful per-bucket delta across a
// re-bucketing). Bench reporters use this to isolate one phase of a
// longer run instead of hand-rolling per-counter subtraction; the
// telemetry agent uses it to ship compact deltas between full reports.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	type key struct{ name, labels string }
	old := make(map[key]Sample, len(prev.Series))
	for _, smp := range prev.Series {
		old[key{smp.Name, smp.Labels}] = smp
	}
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	out := Snapshot{Series: make([]Sample, 0, len(s.Series))}
	for _, smp := range s.Series {
		p, ok := old[key{smp.Name, smp.Labels}]
		if ok && smp.Kind == p.Kind && smp.Kind != KindGauge.String() {
			smp.Value = clamp(smp.Value - p.Value)
			smp.Count = clamp(smp.Count - p.Count)
			smp.Sum = clamp(smp.Sum - p.Sum)
			if len(smp.Bucket) == len(p.Bucket) {
				b := make([]Bucket, len(smp.Bucket))
				for i := range b {
					b[i] = Bucket{LE: smp.Bucket[i].LE, Count: clamp(smp.Bucket[i].Count - p.Bucket[i].Count)}
				}
				smp.Bucket = b
			}
		}
		out.Series = append(out.Series, smp)
	}
	return out
}

// Merge returns s with a delta applied — the inverse of Sub, used by the
// telemetry collector to roll a node's incremental reports back into an
// absolute view. Counters and histogram counts/sums/buckets add; gauges
// take the delta's value (a gauge in a delta is the newer point-in-time
// reading, not an increment); series present only in the delta append.
// Histogram buckets add element-wise when the layouts match and adopt
// the delta's layout otherwise (the source was re-bucketed; its newer
// shape wins). The result keeps Snapshot's canonical (name, labels)
// order regardless of either input's order.
func (s Snapshot) Merge(delta Snapshot) Snapshot {
	type key struct{ name, labels string }
	idx := make(map[key]int, len(s.Series))
	out := Snapshot{Series: make([]Sample, len(s.Series), len(s.Series)+len(delta.Series))}
	copy(out.Series, s.Series)
	for i, smp := range out.Series {
		idx[key{smp.Name, smp.Labels}] = i
	}
	for _, d := range delta.Series {
		i, ok := idx[key{d.Name, d.Labels}]
		if !ok || out.Series[i].Kind != d.Kind {
			if !ok {
				idx[key{d.Name, d.Labels}] = len(out.Series)
				out.Series = append(out.Series, d)
			} else {
				// The series changed kind at the source; the newer
				// registration wins wholesale.
				out.Series[i] = d
			}
			continue
		}
		smp := &out.Series[i]
		if d.Kind == KindGauge.String() {
			smp.Value = d.Value
			continue
		}
		smp.Value += d.Value
		smp.Count += d.Count
		smp.Sum += d.Sum
		if len(smp.Bucket) == len(d.Bucket) {
			b := make([]Bucket, len(smp.Bucket))
			for j := range b {
				b[j] = Bucket{LE: smp.Bucket[j].LE, Count: smp.Bucket[j].Count + d.Bucket[j].Count}
			}
			smp.Bucket = b
		} else {
			smp.Bucket = append([]Bucket(nil), d.Bucket...)
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

// Filter returns the subset of series whose label set includes every
// given label — the per-tenant view the gateway's /metrics endpoint
// serves. Labels render canonically at registration, so substring
// matching on the `k="v"` fragment is exact.
func (s Snapshot) Filter(labels ...Label) Snapshot {
	out := Snapshot{}
	for _, smp := range s.Series {
		ok := true
		for _, l := range labels {
			frag := l.Key + `="` + l.Value + `"`
			if !strings.Contains(smp.Labels, frag) {
				ok = false
				break
			}
		}
		if ok {
			out.Series = append(out.Series, smp)
		}
	}
	return out
}

// Snapshot captures the registry. Nil-safe: a nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	es := r.sorted()
	snap := Snapshot{Series: make([]Sample, 0, len(es))}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range es {
		smp := Sample{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch e.kind {
		case KindHistogram:
			var cum int64
			smp.Bucket = make([]Bucket, len(e.h.bounds))
			for i, le := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				smp.Bucket[i] = Bucket{LE: le, Count: cum}
			}
			smp.Count = e.h.Count()
			smp.Sum = e.h.Sum()
		default:
			smp.Value = e.value()
		}
		snap.Series = append(snap.Series, smp)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteProm writes the snapshot in the Prometheus text exposition format
// (version 0.0.4): one `# TYPE` line per metric name, then each series.
// Histograms expand to cumulative `_bucket{le=…}` series plus `_sum` and
// `_count`. Snapshots are ordered by (name, labels), so series of one
// name group under one TYPE line.
func (s Snapshot) WriteProm(w io.Writer) error {
	lastName := ""
	for _, smp := range s.Series {
		if smp.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", smp.Name, smp.Kind); err != nil {
				return err
			}
			lastName = smp.Name
		}
		if smp.Kind == KindHistogram.String() {
			if err := writePromHistogram(w, smp); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", smp.Name, smp.Labels, smp.Value); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram series with the le label merged
// into any existing label set.
func writePromHistogram(w io.Writer, smp Sample) error {
	withLE := func(le string) string {
		if smp.Labels == "" {
			return `{le="` + le + `"}`
		}
		return strings.TrimSuffix(smp.Labels, "}") + `,le="` + le + `"}`
	}
	for _, b := range smp.Bucket {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", smp.Name, withLE(fmt.Sprint(b.LE)), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", smp.Name, withLE("+Inf"), smp.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", smp.Name, smp.Labels, smp.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", smp.Name, smp.Labels, smp.Count)
	return err
}

// NegotiateFormat resolves an exposition request to "prom" or "json":
// the explicit ?format= parameter wins (unknown values are an error),
// otherwise the Accept header decides, defaulting to Prometheus text.
// It is the single format authority behind every exposition handler in
// the repo — gridnode's /metrics and its gateway's per-tenant /metrics
// negotiate identically because they both call this.
func NegotiateFormat(req *http.Request) (string, error) {
	switch f := req.URL.Query().Get("format"); f {
	case "json", "prom":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("metrics: unknown format %q (want prom or json)", f)
	}
	if strings.Contains(req.Header.Get("Accept"), "application/json") {
		return "json", nil
	}
	return "prom", nil
}

// ServeSnapshot writes snap in the negotiated format with the matching
// Content-Type (and a Vary: Accept, since the body depends on it).
func ServeSnapshot(w http.ResponseWriter, req *http.Request, snap Snapshot) {
	w.Header().Set("Vary", "Accept")
	format, err := NegotiateFormat(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := snap.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Handler serves the registry over HTTP: Prometheus text by default, the
// JSON snapshot on request (?format=json or Accept: application/json;
// ?format=prom forces the text form and unknown formats are a 400).
// Mount it wherever the process exposes diagnostics; cmd/gridnode serves
// it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ServeSnapshot(w, req, r.Snapshot())
	})
}
