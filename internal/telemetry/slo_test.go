package telemetry

import (
	"testing"
	"time"
)

// second records n requests of one latency for tenant in the second at
// and returns the next second.
func second(tr *SLOTracker, tenant string, at time.Time, n int, latency time.Duration) time.Time {
	for i := 0; i < n; i++ {
		tr.Record(tenant, at, latency, false)
	}
	return at.Add(time.Second)
}

// TestSLOBurnStepFiresAndClears drives the 1 min / 5 min windows with
// synthetic timestamps, one second at a time.
func TestSLOBurnStepFiresAndClears(t *testing.T) {
	tr := NewSLOTracker()
	at := time.Unix(1_700_000_000, 0)

	// A slow window of healthy traffic: 40ms latency, well under the
	// 100ms objective. No alert.
	for s := 0; s < sloSlowSecs; s++ {
		at = second(tr, "acme", at, 50, 40*time.Millisecond)
		for _, st := range tr.Evaluate(at) {
			if st.Firing {
				t.Fatalf("alert fired on healthy traffic at +%ds: %+v", s, st)
			}
		}
	}

	// Latency step to 400ms: every request is now bad. The alert must
	// fire within two fast windows.
	fired := -1
	for s := 0; s < 2*sloFastSecs && fired < 0; s++ {
		at = second(tr, "acme", at, 50, 400*time.Millisecond)
		for _, st := range tr.Evaluate(at) {
			if st.Firing {
				fired = s
			}
		}
	}
	if fired < 0 {
		t.Fatal("burn alert never fired within two fast windows of the latency step")
	}

	// Step reverts; the fast window drains and the alert clears.
	cleared := false
	for s := 0; s < 3*sloFastSecs && !cleared; s++ {
		at = second(tr, "acme", at, 50, 40*time.Millisecond)
		for _, st := range tr.Evaluate(at) {
			if !st.Firing {
				cleared = true
			}
			if st.Trips != 1 {
				t.Fatalf("trips = %d, want exactly 1 activation", st.Trips)
			}
		}
	}
	if !cleared {
		t.Fatal("alert did not clear after the step reverted")
	}
}

func TestSLOFailuresCountAsBad(t *testing.T) {
	tr := NewSLOTracker()
	at := time.Unix(1_700_000_100, 0)
	for i := 0; i < 10; i++ {
		tr.Record("t", at, time.Millisecond, i%2 == 0) // half fail fast
	}
	st := tr.Evaluate(at.Add(time.Second))
	if len(st) != 1 || st[0].FastBad != 5 {
		t.Fatalf("failed requests not counted bad: %+v", st)
	}
}

func TestSLOQuietTenantDoesNotBurn(t *testing.T) {
	tr := NewSLOTracker()
	at := time.Unix(1_700_000_200, 0)
	tr.Record("quiet", at, time.Millisecond, false)
	// Evaluate past the slow window: all buckets out of window, burn 0.
	st := tr.Evaluate(at.Add(2 * sloSlowSecs * time.Second))
	if len(st) != 1 || st[0].FastBurn != 0 || st[0].SlowBurn != 0 || st[0].Firing {
		t.Fatalf("stale traffic still burning: %+v", st)
	}
}

func TestSLONilTracker(t *testing.T) {
	var tr *SLOTracker
	tr.Record("x", time.Now(), time.Second, true) // must not panic
	if got := tr.Evaluate(time.Now()); got != nil {
		t.Fatalf("nil tracker evaluated to %+v", got)
	}
}

func TestSLOSlowWindowHoldsAlertContext(t *testing.T) {
	// A single bad second inside an otherwise healthy slow window must
	// NOT fire: the fast window burns but the slow one does not — the
	// two-window AND is exactly what suppresses blips.
	tr := NewSLOTracker()
	at := time.Unix(1_700_000_300, 0)
	for s := 0; s < sloSlowSecs-1; s++ {
		at = second(tr, "acme", at, 100, time.Millisecond)
	}
	at = second(tr, "acme", at, 200, 500*time.Millisecond) // one bad second
	for _, st := range tr.Evaluate(at) {
		if st.FastBurn < sloBurnThreshold {
			t.Fatalf("the bad second did not burn the fast window: %+v", st)
		}
		if st.Firing {
			t.Fatalf("one bad second fired the alert: %+v", st)
		}
	}
}
