package telemetry

import (
	"sort"
	"sync"
	"time"
)

// SLO tracking: rolling-window latency/error objectives per tenant with
// multi-window burn-rate alerting, in the SRE-workbook style. A request
// is "bad" when it failed or exceeded the latency objective. The burn
// rate over a window is the fraction of bad requests divided by the
// error budget — burn 1.0 spends the budget exactly at the sustainable
// rate; burn 2.0 exhausts it in half the window. The alert fires only
// when BOTH the fast and the slow window burn past the threshold: the
// fast window gives detection latency, the slow window keeps one latency
// blip from paging, and requiring both is what makes the alert reset
// quickly once the cause reverts (the fast window drains first).
//
// All methods take explicit timestamps, so tests can drive a synthetic
// clock deterministically; live callers pass time.Now().

// The objective and the evaluation windows, a reasonable
// interactive-service starting point: 100ms objective, 99% target, 1m/5m
// windows, 2x burn threshold.
const (
	sloObjective     = 100 * time.Millisecond // per-request latency objective
	sloBudget        = 0.01                   // tolerated bad fraction (99% target)
	sloFastSecs      = 60                     // detection window, in seconds
	sloSlowSecs      = 5 * 60                 // sustain window and retention horizon, in seconds
	sloBurnThreshold = 2.0                    // both windows must burn at or past this to fire
)

// sloBucket accumulates one second of one tenant's traffic.
type sloBucket struct {
	sec        int64 // unix second this bucket currently holds; 0 = empty
	total, bad int64
}

// sloSeries is one tenant's ring of per-second buckets plus alert state.
type sloSeries struct {
	buckets []sloBucket
	firing  bool
	trips   uint64 // transitions into firing
}

// SLOStatus is one tenant's evaluation result.
type SLOStatus struct {
	Tenant    string  `json:"tenant"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
	FastBad   int64   `json:"fast_bad"`
	FastTotal int64   `json:"fast_total"`
	SlowBad   int64   `json:"slow_bad"`
	SlowTotal int64   `json:"slow_total"`
	Firing    bool    `json:"firing"`
	Trips     uint64  `json:"trips"` // lifetime alert activations
}

// SLOTracker evaluates per-tenant SLO burn. Safe for concurrent use.
type SLOTracker struct {
	mu      sync.Mutex
	tenants map[string]*sloSeries
}

// NewSLOTracker builds a tracker.
func NewSLOTracker() *SLOTracker {
	return &SLOTracker{tenants: make(map[string]*sloSeries)}
}

// Record accounts one finished request. Nil-safe: a nil tracker records
// nothing, so callers without SLO tracking skip the branch.
func (t *SLOTracker) Record(tenant string, at time.Time, latency time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.tenants[tenant]
	if s == nil {
		s = &sloSeries{buckets: make([]sloBucket, sloSlowSecs)}
		t.tenants[tenant] = s
	}
	sec := at.Unix()
	b := &s.buckets[sec%int64(len(s.buckets))]
	if b.sec != sec {
		// The ring lapped: this slot holds a second now outside the slow
		// window. Reuse it for the current second.
		*b = sloBucket{sec: sec}
	}
	b.total++
	if failed || latency > sloObjective {
		b.bad++
	}
}

// Evaluate computes burn rates for every tenant seen so far, as of the
// given instant, and updates alert state: an alert fires when both
// windows burn at or past the threshold and clears when the fast window
// drops back below it. Results are sorted by tenant. Nil-safe.
func (t *SLOTracker) Evaluate(at time.Time) []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := at.Unix()
	out := make([]SLOStatus, 0, len(t.tenants))
	for name, s := range t.tenants {
		st := SLOStatus{Tenant: name}
		for i := range s.buckets {
			b := &s.buckets[i]
			if b.sec == 0 || b.sec > now || now-b.sec >= sloSlowSecs {
				continue
			}
			st.SlowTotal += b.total
			st.SlowBad += b.bad
			if now-b.sec < sloFastSecs {
				st.FastTotal += b.total
				st.FastBad += b.bad
			}
		}
		st.FastBurn = burnRate(st.FastBad, st.FastTotal)
		st.SlowBurn = burnRate(st.SlowBad, st.SlowTotal)
		if !s.firing && st.FastBurn >= sloBurnThreshold && st.SlowBurn >= sloBurnThreshold {
			s.firing = true
			s.trips++
		} else if s.firing && st.FastBurn < sloBurnThreshold {
			s.firing = false
		}
		st.Firing = s.firing
		st.Trips = s.trips
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// burnRate is (bad/total)/sloBudget, 0 when the window saw no traffic.
func burnRate(bad, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / sloBudget
}
