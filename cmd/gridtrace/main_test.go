package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"gridmdo/internal/bench"
	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// traceStencilTCP runs the two-node TCP stencil with a tracer shared by
// both runtimes and returns the run's snapshot (all PEs, one snapshot —
// the merge path is exercised by splitting it per node below).
func traceStencilTCP(t *testing.T, procs, objects int, lat time.Duration) *trace.Snapshot {
	t.Helper()
	tr := trace.New(procs)
	start := time.Now()
	c, err := bench.Host(procs, 2, lat, func() (*core.Program, error) {
		return stencil.BuildProgram(stencilParams(objects))
	}, core.WithTrace(tr))
	if err != nil {
		t.Fatalf("stencil tcp V=%d: %v", objects, err)
	}
	defer c.Close()
	if _, err := c.Run(); err != nil {
		t.Fatalf("stencil tcp V=%d: %v", objects, err)
	}
	return tr.Snapshot(0, 0, procs, time.Since(start))
}

// stencilParams is the traced stencil: a 1024² mesh in objects blocks
// (a perfect square), cost model attached.
func stencilParams(objects int) *stencil.Params {
	v := int(math.Sqrt(float64(objects)))
	return &stencil.Params{
		Width: 1024, Height: 1024, VX: v, VY: v,
		Steps: 8, Warmup: 2,
		Model: stencil.DefaultModel(),
	}
}

// splitSnapshot carves one all-PE snapshot into per-node snapshots, as if
// each node had written its own file.
func splitSnapshot(s *trace.Snapshot, procs int) []*trace.Snapshot {
	half := procs / 2
	out := []*trace.Snapshot{
		{Node: 0, PELo: 0, PEHi: half, Horizon: s.Horizon},
		{Node: 1, PELo: half, PEHi: procs, Horizon: s.Horizon},
	}
	for _, ev := range s.Events {
		n := 0
		if ev.PE >= half {
			n = 1
		}
		out[n].Events = append(out[n].Events, ev)
	}
	return out
}

// traceStencilSim runs the two-cluster stencil on the virtual-time engine
// and returns its snapshot. Virtual time models the PEs as genuinely
// parallel regardless of host core count, so the overlap measurements are
// exact and deterministic — this is the executor the paper's "artificial
// latency" experiments use.
func traceStencilSim(t *testing.T, procs, objects int, lat time.Duration) *trace.Snapshot {
	t.Helper()
	topo, err := topology.TwoClusters(procs, lat)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := stencil.BuildProgram(stencilParams(objects))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(procs)
	v, _, err := bench.Sim(topo, prog, sim.Options{Trace: tr})
	if err != nil {
		t.Fatalf("stencil sim V=%d: %v", objects, err)
	}
	return tr.Snapshot(0, 0, procs, v.(*stencil.Result).FinishAt)
}

// TestMaskedFractionGrowsWithVirtualization is the PR's acceptance check,
// the paper's signature measured directly: on a delayed two-cluster link,
// raising the virtualization degree V/P raises the masked fraction (more
// objects per PE → more compute available to hide each flight). The WAN
// flight itself never leaves the dependency chain — the ghost must cross
// the link every step — so what shifts on the critical path is its
// composition: the exposed comm-wait share falls as the same flights
// become masked by other objects' compute. Virtual time makes the numbers
// exact, so the assertions can demand real margins rather than bare
// inequalities.
func TestMaskedFractionGrowsWithVirtualization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 8.4M cell updates per run")
	}
	const procs = 4
	const lat = 4 * time.Millisecond

	type run struct {
		masked    float64
		cpExposed float64 // exposed comm-wait share of the critical path
		commWait  time.Duration
	}
	measure := func(objects int) run {
		snap := traceStencilSim(t, procs, objects, lat)
		evs, numPE, horizon := trace.Merge(splitSnapshot(snap, procs)...)
		ov := trace.ComputeOverlap(evs, numPE, horizon)
		cp := trace.CriticalPath(appEvents(evs))
		if len(cp.Hops) == 0 {
			t.Fatalf("V=%d: empty critical path", objects)
		}
		return run{
			masked:    ov.MaskedFraction(),
			cpExposed: cp.ExposedFraction(),
			commWait:  ov.Totals().CommWait,
		}
	}

	low := measure(4)   // V/P = 1: nothing to overlap with
	high := measure(64) // V/P = 16: pipelined objects mask the flights

	t.Logf("masked fraction: V=4 %.3f, V=64 %.3f", low.masked, high.masked)
	t.Logf("critical-path exposed share: V=4 %.3f, V=64 %.3f", low.cpExposed, high.cpExposed)
	t.Logf("total comm-wait: V=4 %v, V=64 %v", low.commWait, high.commWait)

	if high.masked < low.masked+0.2 {
		t.Errorf("masked fraction did not grow with V/P: V=4 %.3f, V=64 %.3f", low.masked, high.masked)
	}
	if high.cpExposed >= low.cpExposed {
		t.Errorf("critical path did not shift off comm-wait: exposed share V=4 %.3f, V=64 %.3f",
			low.cpExposed, high.cpExposed)
	}
	if high.commWait >= low.commWait {
		t.Errorf("total exposed comm-wait did not fall: V=4 %v, V=64 %v", low.commWait, high.commWait)
	}
}

// TestAnalyzeReports drives the full analyzer over a real two-node trace
// and checks every report section renders.
func TestAnalyzeReports(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock two-node run")
	}
	const procs = 4
	snap := traceStencilTCP(t, procs, 16, time.Millisecond)
	var buf bytes.Buffer
	err := analyze(&buf, splitSnapshot(snap, procs), analyzeOpts{Buckets: 40, Steps: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"snapshot(s)",
		"overlap profile",
		"masked latency",
		"per-step overlap",
		"critical path",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}

	// The Chrome export of the same stream must be valid JSON with flow
	// events linking the TCP hop (checked structurally in the trace
	// package; here we only need the CLI-facing path to not error).
	evs, _, _ := trace.Merge(splitSnapshot(snap, procs)...)
	var cb bytes.Buffer
	if err := trace.WriteChrome(&cb, evs, nodeOfFunc(splitSnapshot(snap, procs))); err != nil {
		t.Fatal(err)
	}
	if cb.Len() == 0 {
		t.Error("empty Chrome export")
	}
}

func TestAnalyzeNoSnapshots(t *testing.T) {
	if err := analyze(&bytes.Buffer{}, nil, analyzeOpts{}); err == nil {
		t.Error("analyze(nil) succeeded")
	}
}
