package bench

import (
	"io"
	"testing"
	"time"
)

// TestGateSoakSmoke runs the three-phase gateway experiment at toy
// scale: the structure (baseline → duplicate-key soak → flood-vs-paced
// backpressure) and every logical acceptance check must hold even when
// the sizes are tiny. The two latency checks (SoakP99Within,
// PacedWithinBound) are what a loaded host decides, not the code: they
// stay in the report `gridsim -experiment gate-soak` prints and fails on,
// and do not decide `go test`.
func TestGateSoakSmoke(t *testing.T) {
	// The shallow gateMaxInflight makes the farm latency-bound (each task
	// crosses the 1ms inter-group hop, so drain ≈ gateMaxInflight/RTT) and
	// pools the overload in the tenant queues, where admission control
	// sees it: cheap no-wait flood POSTs outrun the drain even on one
	// core, so the capped flood queue must overflow into 429s.
	p := FastProfile()
	p.Gate = GateConfig{
		Procs:        4,
		BaselineJobs: 100, BaselineClients: 8,
		SoakJobs: 600, SoakClients: 32,
		PacedJobs: 20, PacedEvery: 2 * time.Millisecond,
		FloodClients: 8, FloodQueue: 16,
		SoakP99Bound: 500 * time.Millisecond,
	}
	tbl, rep, err := GateSoak(io.Discard, p)
	if rep == nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows %d, want 4", len(tbl.Rows))
	}
	if rep.DoubleExecs != 0 {
		t.Errorf("%d double executions", rep.DoubleExecs)
	}
	if rep.Completed != rep.Unique {
		t.Errorf("completed %d != unique %d", rep.Completed, rep.Unique)
	}
	if rep.Soak.Duplicates == 0 {
		t.Error("soak phase never hit a duplicate key")
	}
	if rep.Backpressure.Flood429s == 0 {
		t.Error("flood tenant was never throttled")
	}
}
