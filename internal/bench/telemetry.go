package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/telemetry"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// The telemetry experiment measures the four properties the telemetry
// plane promises (DESIGN.md §12):
//
//  1. Overhead: the agent + tracer must cost <= 2% of the stencil's
//     per-step time on the hot path (best-of-N both ways, so scheduler
//     noise cancels).
//  2. Convergence: the collector's cluster aggregate must equal ground
//     truth within one reporting period on a clean channel, and
//     re-converge within a bounded number of periods when a seeded
//     fraction of reports is dropped (the full-snapshot cadence heals
//     broken delta chains).
//  3. Trace completeness: with the same drop rate on the span stream,
//     the fraction of jobs whose causal tree is retrieved complete
//     (every span ended, tree extends past the root) must stay high —
//     the resend factor is what buys this.
//  4. SLO burn: a latency step from healthy to 4x the objective must
//     trip the multi-window burn alert within two fast windows and
//     clear after the step reverts, on a virtual clock.

// TelemetryConfig sizes the telemetry experiment.
type TelemetryConfig struct {
	// Stencil shapes the overhead phase's hot-path workload.
	Stencil        StencilConfig
	Procs, Objects int
	Latency        time.Duration
	Interval       time.Duration // agent reporting period during the overhead run
	Runs           int           // best-of-N per arm
	OverheadBound  float64       // acceptance: overhead fraction <= this
	// TraceCap sizes the per-PE trace ring for the agent arms. An agent
	// drains the ring every Interval, so it needs only one interval's
	// events — not trace.DefaultCapacity, which is sized for end-of-run
	// post-mortem snapshots. The distinction matters: ring slots hold a
	// string field, so the GC scans the whole resident ring on every
	// cycle, and an oversized ring taxes the mutator far more than the
	// lock-free Record path does (gridnode exposes the same knob as
	// -trace-cap).
	TraceCap int

	// Convergence phase: ConvNodes synthetic agents mutate counters for
	// ConvPeriods reporting periods over a channel dropping Drop of all
	// reports (seeded), then stop; the lag until the aggregate equals
	// ground truth is measured.
	ConvNodes   int
	ConvPeriods int
	Drop        float64
	DropLagMax  int // acceptance: re-convergence lag under drops <= this many periods

	// Completeness phase: Jobs jobs through a serve farm + gateway with
	// the span stream dropping Drop of reports.
	Jobs              int
	CompletenessFloor float64 // acceptance: complete-tree ratio >= this

	// SLO phase (virtual clock).
	SLOObjective  time.Duration
	SLOBudget     float64
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	SLOThreshold  float64

	Seed int64
}

// TelemetryOverhead is the agent-overhead measurement.
type TelemetryOverhead struct {
	Runs           int     `json:"runs"`
	BasePerStepMS  float64 `json:"base_per_step_ms"`
	AgentPerStepMS float64 `json:"agent_per_step_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	Reports        uint64  `json:"reports_shipped"`
}

// TelemetryConvergence is the aggregation-lag measurement.
type TelemetryConvergence struct {
	Nodes           int     `json:"nodes"`
	Periods         int     `json:"periods"`
	Drop            float64 `json:"drop"`
	CleanConverged  bool    `json:"clean_every_period"` // aggregate == truth after every clean period
	DropLagPeriods  int     `json:"drop_lag_periods"`   // periods to re-converge after drops
	DroppedReports  int     `json:"dropped_reports"`
	DeltaChainBreak uint64  `json:"delta_chain_breaks"` // collector-observed gaps
}

// TelemetryCompleteness is the trace-completeness measurement.
type TelemetryCompleteness struct {
	Jobs     int     `json:"jobs"`
	Complete int     `json:"complete_traces"`
	Ratio    float64 `json:"complete_ratio"`
	Spans    int     `json:"stored_spans"`
	Dropped  int     `json:"dropped_reports"`
}

// TelemetrySLO is the burn-alert measurement.
type TelemetrySLO struct {
	FiredAfterSec int     `json:"fired_after_s"` // seconds into the step until the alert fired (-1: never)
	WithinWindows float64 `json:"fired_within_fast_windows"`
	Cleared       bool    `json:"cleared_after_revert"`
	Trips         uint64  `json:"trips"`
}

// TelemetryChecks are the acceptance gates.
type TelemetryChecks struct {
	OverheadWithin      bool `json:"overhead_within_bound"`
	ConvergesClean      bool `json:"converges_within_one_period"`
	ConvergesUnderDrops bool `json:"reconverges_under_drops"`
	CompletenessOK      bool `json:"completeness_above_floor"`
	SLOFired            bool `json:"slo_fired_within_two_windows"`
	SLOCleared          bool `json:"slo_cleared_after_revert"`
}

func (c TelemetryChecks) ok() bool {
	return c.OverheadWithin && c.ConvergesClean && c.ConvergesUnderDrops &&
		c.CompletenessOK && c.SLOFired && c.SLOCleared
}

type telemetryConfigJ struct {
	Procs         int     `json:"procs"`
	Objects       int     `json:"objects"`
	Steps         int     `json:"steps"`
	Runs          int     `json:"runs"`
	IntervalMS    float64 `json:"interval_ms"`
	TraceCap      int     `json:"trace_cap"`
	OverheadBound float64 `json:"overhead_bound"`
	ConvNodes     int     `json:"conv_nodes"`
	Drop          float64 `json:"drop"`
	Jobs          int     `json:"jobs"`
	ComplFloor    float64 `json:"completeness_floor"`
	SLOObjMS      float64 `json:"slo_objective_ms"`
	SLOBudget     float64 `json:"slo_budget"`
}

// TelemetryReport is the machine-readable result (BENCH_telemetry.json).
type TelemetryReport struct {
	Description  string                `json:"description"`
	Config       telemetryConfigJ      `json:"config"`
	Overhead     TelemetryOverhead     `json:"overhead"`
	Convergence  TelemetryConvergence  `json:"convergence"`
	Completeness TelemetryCompleteness `json:"completeness"`
	SLO          TelemetrySLO          `json:"slo"`
	Checks       TelemetryChecks       `json:"checks"`
}

// WriteJSON serializes the report.
func (r *TelemetryReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// telemetryStencilRun runs one stencil arm and returns its per-step time.
// With agent set, the run carries the full telemetry plane: a tracer on
// the runtime, an agent ticking at the configured interval, and a live
// collector ingesting every report — the realistic worst case, since
// ingest cost lands on the same host in this harness.
func telemetryStencilRun(cfg TelemetryConfig, withAgent bool) (time.Duration, uint64, error) {
	reg := metrics.NewRegistry()
	opts := []core.Option{core.WithMetrics(reg)}
	var tr *trace.Tracer
	if withAgent {
		tr = trace.NewWithCapacity(cfg.Procs, cfg.TraceCap)
		opts = append(opts, core.WithTrace(tr))
	}

	var agent *telemetry.Agent
	var coll *telemetry.Collector
	if withAgent {
		coll = telemetry.NewCollector(telemetry.CollectorConfig{})
		var err error
		agent, err = telemetry.NewAgent(telemetry.AgentConfig{
			Node: 0, Registry: reg, Tracer: tr,
			Epoch: time.Now(), NumPE: cfg.Procs,
			Interval: cfg.Interval,
			Send:     func(b []byte) error { return coll.Ingest(b) },
		})
		if err != nil {
			return 0, 0, err
		}
		agent.Start()
		defer agent.Stop()
	}

	res, err := StencilRealtime(cfg.Stencil, cfg.Procs, cfg.Objects, cfg.Latency, opts...)
	if err != nil {
		return 0, 0, err
	}
	var reports uint64
	if coll != nil {
		agent.Stop()
		for _, n := range coll.Nodes() {
			reports += n.Reports
		}
	}
	return res.PerStep, reports, nil
}

// telemetryOverhead measures both arms best-of-N. The arms are
// interleaved round by round — base, agent, base, agent — rather than
// run as two sequential blocks: on a loaded or single-core host the
// machine drifts (frequency, background load, GC pacing) on timescales
// comparable to one block, and a blocked design charges that drift to
// whichever arm ran second. Interleaving exposes both arms to the same
// drift; min-of-N then discards the noisy rounds of each.
func telemetryOverhead(w io.Writer, cfg TelemetryConfig) (TelemetryOverhead, error) {
	var base, with time.Duration
	var reports uint64
	for r := 0; r < cfg.Runs; r++ {
		b, _, err := telemetryStencilRun(cfg, false)
		if err != nil {
			return TelemetryOverhead{}, fmt.Errorf("baseline arm: %w", err)
		}
		if base == 0 || b < base {
			base = b
		}
		a, n, err := telemetryStencilRun(cfg, true)
		if err != nil {
			return TelemetryOverhead{}, fmt.Errorf("agent arm: %w", err)
		}
		if with == 0 || a < with {
			with = a
		}
		if n > reports {
			reports = n
		}
	}
	o := TelemetryOverhead{
		Runs:           cfg.Runs,
		BasePerStepMS:  ms(base),
		AgentPerStepMS: ms(with),
		OverheadPct:    100 * (float64(with) - float64(base)) / float64(base),
		Reports:        reports,
	}
	fmt.Fprintf(w, "telemetry: overhead: base %.3fms/step, with agent %.3fms/step (%+.2f%%, best of %d)\n",
		o.BasePerStepMS, o.AgentPerStepMS, o.OverheadPct, cfg.Runs)
	return o, nil
}

// telemetryConvergence drives synthetic agents against one collector with
// manual report ticks — no wall clock anywhere, so the lag counts are
// exact period counts.
func telemetryConvergence(w io.Writer, cfg TelemetryConfig) (TelemetryConvergence, error) {
	type node struct {
		reg   *metrics.Registry
		tasks *metrics.Counter
		agent *telemetry.Agent
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var dropped int

	build := func(coll *telemetry.Collector, drop float64) ([]*node, error) {
		nodes := make([]*node, cfg.ConvNodes)
		for i := range nodes {
			reg := metrics.NewRegistry()
			n := &node{reg: reg, tasks: reg.Counter("conv_tasks_total")}
			var err error
			n.agent, err = telemetry.NewAgent(telemetry.AgentConfig{
				Node: i, Registry: reg, Epoch: time.Unix(1_700_000_000, 0),
				Send: func(b []byte) error {
					if drop > 0 && rng.Float64() < drop {
						dropped++
						return nil // frame lost on the wire
					}
					return coll.Ingest(b)
				},
			})
			if err != nil {
				return nil, err
			}
			nodes[i] = n
		}
		return nodes, nil
	}

	// Clean channel: after every mutate+report period the aggregate must
	// already equal ground truth — convergence within one period.
	coll := telemetry.NewCollector(telemetry.CollectorConfig{})
	nodes, err := build(coll, 0)
	if err != nil {
		return TelemetryConvergence{}, err
	}
	var truth int64
	clean := true
	for p := 0; p < cfg.ConvPeriods; p++ {
		for i, n := range nodes {
			inc := int64(1 + (p+i)%7)
			n.tasks.Add(inc)
			truth += inc
		}
		for _, n := range nodes {
			if err := n.agent.ReportOnce(); err != nil {
				return TelemetryConvergence{}, err
			}
		}
		if coll.ClusterMetrics().Value("conv_tasks_total") != truth {
			clean = false
		}
	}

	// Lossy channel: same traffic with seeded drops, then quiet reporting
	// periods until the aggregate heals. The full-snapshot cadence bounds
	// the lag; an unlucky seed that drops fulls too costs more periods.
	coll = telemetry.NewCollector(telemetry.CollectorConfig{})
	nodes, err = build(coll, cfg.Drop)
	if err != nil {
		return TelemetryConvergence{}, err
	}
	truth = 0
	for p := 0; p < cfg.ConvPeriods; p++ {
		for i, n := range nodes {
			inc := int64(1 + (p+i)%7)
			n.tasks.Add(inc)
			truth += inc
		}
		for _, n := range nodes {
			if err := n.agent.ReportOnce(); err != nil {
				return TelemetryConvergence{}, err
			}
		}
	}
	lag := 0
	for coll.ClusterMetrics().Value("conv_tasks_total") != truth {
		lag++
		if lag > 4*telemetry.DefaultFullEvery {
			break // report the failure rather than spin forever
		}
		for _, n := range nodes {
			if err := n.agent.ReportOnce(); err != nil {
				return TelemetryConvergence{}, err
			}
		}
	}
	var gaps uint64
	for _, n := range coll.Nodes() {
		gaps += n.Gaps
	}
	c := TelemetryConvergence{
		Nodes: cfg.ConvNodes, Periods: cfg.ConvPeriods, Drop: cfg.Drop,
		CleanConverged: clean, DropLagPeriods: lag,
		DroppedReports: dropped, DeltaChainBreak: gaps,
	}
	fmt.Fprintf(w, "telemetry: convergence: clean channel per-period %v; %.0f%% drops (%d lost, %d chain breaks) healed in %d period(s)\n",
		clean, 100*cfg.Drop, dropped, gaps, lag)
	return c, nil
}

// telemetryCompleteness pushes jobs through a serve farm + gateway whose
// observer is a live collector, with the agent's span stream dropping a
// seeded fraction of reports, and counts how many job trees come back
// complete.
func telemetryCompleteness(w io.Writer, cfg TelemetryConfig) (TelemetryCompleteness, error) {
	reg := metrics.NewRegistry()
	fp := &taskfarm.Params{
		Serve: true, Workers: cfg.Procs,
		Shards: 2, Batch: 4, Prefetch: 2, Spin: 2000,
		CostSkew: 1, Seed: 1, Metrics: reg,
	}
	svc, err := taskfarm.NewService(fp)
	if err != nil {
		return TelemetryCompleteness{}, err
	}
	prog, err := taskfarm.BuildProgram(fp)
	if err != nil {
		return TelemetryCompleteness{}, err
	}
	topo, err := topology.New([]int{cfg.Procs / 2, cfg.Procs - cfg.Procs/2},
		topology.WithInterLatency(time.Millisecond))
	if err != nil {
		return TelemetryCompleteness{}, err
	}

	coll := telemetry.NewCollector(telemetry.CollectorConfig{})
	tr := trace.NewWithCapacity(cfg.Procs, cfg.TraceCap)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var dropped int

	gw, err := gate.New(gate.Config{
		Tenants:  []gate.TenantConfig{{Name: "bench"}},
		Metrics:  reg,
		Observer: coll,
	}, svc)
	if err != nil {
		return TelemetryCompleteness{}, err
	}
	svc.OnResult(gw.OnResult)

	ready := make(chan struct{})
	rt, err := core.NewRuntime(topo, prog,
		core.WithMetrics(reg), core.WithTrace(tr),
		core.WithLifecycle(core.Lifecycle{OnStart: func() { close(ready) }}))
	if err != nil {
		return TelemetryCompleteness{}, err
	}
	svc.Bind(rt)

	agent, err := telemetry.NewAgent(telemetry.AgentConfig{
		Node: 0, Registry: reg, Tracer: tr,
		Epoch: rt.Epoch(), NumPE: cfg.Procs,
		Send: func(b []byte) error {
			if rng.Float64() < cfg.Drop {
				dropped++
				return nil
			}
			return coll.Ingest(b)
		},
	})
	if err != nil {
		return TelemetryCompleteness{}, err
	}

	done := make(chan error, 1)
	go func() { _, err := rt.Run(); done <- err }()
	<-ready

	ids := make([]string, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		j, _, err := gw.Submit("bench", "")
		if err != nil {
			rt.Stop()
			<-done
			return TelemetryCompleteness{}, err
		}
		ids = append(ids, j.ID)
		// Report mid-stream so span digests ride many separately droppable
		// frames instead of one bulk flush.
		if i%8 == 7 {
			_ = agent.ReportOnce()
		}
		select {
		case <-j.Done:
		case <-time.After(30 * time.Second):
			rt.Stop()
			<-done
			return TelemetryCompleteness{}, fmt.Errorf("job %s never completed", j.ID)
		}
	}
	// Drain the span map: each changed span is shipped on resendFactor
	// consecutive reports, so a handful of quiet ticks flushes the tail
	// even through drops.
	for t := 0; t < 8; t++ {
		_ = agent.ReportOnce()
	}
	rt.Stop()
	if err := <-done; err != nil {
		return TelemetryCompleteness{}, err
	}
	gw.Close(nil)

	complete := 0
	for _, id := range ids {
		if doc, ok := coll.JobTrace(id); ok && doc.Complete {
			complete++
		}
	}
	c := TelemetryCompleteness{
		Jobs: cfg.Jobs, Complete: complete,
		Ratio:   float64(complete) / float64(cfg.Jobs),
		Spans:   coll.SpanCount(),
		Dropped: dropped,
	}
	fmt.Fprintf(w, "telemetry: completeness: %d/%d job trees complete (%.1f%%) through %d dropped report(s)\n",
		complete, cfg.Jobs, 100*c.Ratio, dropped)
	return c, nil
}

// telemetrySLO replays the latency-step scenario on a virtual clock: a
// healthy baseline, a step to 4x the objective, and a revert.
func telemetrySLO(w io.Writer, cfg TelemetryConfig) TelemetrySLO {
	tr := telemetry.NewSLOTracker(telemetry.SLOConfig{
		Objective: cfg.SLOObjective, Budget: cfg.SLOBudget,
		FastWindow: cfg.SLOFastWindow, SlowWindow: cfg.SLOSlowWindow,
		BurnThreshold: cfg.SLOThreshold,
	})
	at := time.Unix(1_700_000_000, 0)
	healthy := cfg.SLOObjective / 2
	bad := 4 * cfg.SLOObjective
	record := func(lat time.Duration, secs int) []telemetry.SLOStatus {
		var last []telemetry.SLOStatus
		for s := 0; s < secs; s++ {
			for i := 0; i < 50; i++ {
				tr.Record("bench", at, lat, false)
			}
			at = at.Add(time.Second)
			last = tr.Evaluate(at)
		}
		return last
	}

	slowSecs := int(cfg.SLOSlowWindow / time.Second)
	record(healthy, slowSecs+2) // fill both windows with health

	fired := -1
	stepSecs := 2 * int(cfg.SLOFastWindow/time.Second)
	for s := 0; s < stepSecs; s++ {
		st := record(bad, 1)
		if fired < 0 && len(st) > 0 && st[0].Firing {
			fired = s + 1
		}
	}

	cleared := false
	var trips uint64
	for s := 0; s < slowSecs && !cleared; s++ {
		st := record(healthy, 1)
		if len(st) > 0 {
			trips = st[0].Trips
			cleared = !st[0].Firing
		}
	}

	res := TelemetrySLO{
		FiredAfterSec: fired,
		Cleared:       cleared,
		Trips:         trips,
	}
	if fired > 0 {
		res.WithinWindows = float64(fired) / cfg.SLOFastWindow.Seconds()
	}
	fmt.Fprintf(w, "telemetry: slo: step to %v fired after %ds (%.1f fast windows), cleared=%v, trips=%d\n",
		bad, fired, res.WithinWindows, cleared, trips)
	return res
}

// Telemetry runs the four-phase telemetry experiment and renders the
// results as a table plus the BENCH_telemetry.json report.
func Telemetry(w io.Writer, p Profile) (*Table, *TelemetryReport, error) {
	cfg := p.Telemetry
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = trace.DrainedCapacity
	}
	if w == nil {
		w = io.Discard
	}

	over, err := telemetryOverhead(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	conv, err := telemetryConvergence(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	compl, err := telemetryCompleteness(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	slo := telemetrySLO(w, cfg)

	rep := &TelemetryReport{
		Description: "Telemetry plane acceptance: stencil hot-path overhead of the agent+tracer (best-of-N both arms), " +
			"collector convergence lag on clean and lossy report channels, cross-layer job-trace completeness under " +
			"report drops, and the multi-window SLO burn alert under a latency step on a virtual clock. " +
			"Regenerate with: gridsim -experiment telemetry -json BENCH_telemetry.json",
		Config: telemetryConfigJ{
			Procs: cfg.Procs, Objects: cfg.Objects, Steps: cfg.Stencil.Steps,
			Runs: cfg.Runs, IntervalMS: ms(cfg.Interval),
			TraceCap: cfg.TraceCap, OverheadBound: cfg.OverheadBound,
			ConvNodes: cfg.ConvNodes, Drop: cfg.Drop,
			Jobs: cfg.Jobs, ComplFloor: cfg.CompletenessFloor,
			SLOObjMS: ms(cfg.SLOObjective), SLOBudget: cfg.SLOBudget,
		},
		Overhead:     over,
		Convergence:  conv,
		Completeness: compl,
		SLO:          slo,
	}
	rep.Checks = TelemetryChecks{
		OverheadWithin:      over.OverheadPct <= 100*cfg.OverheadBound,
		ConvergesClean:      conv.CleanConverged,
		ConvergesUnderDrops: conv.DropLagPeriods <= cfg.DropLagMax,
		CompletenessOK:      compl.Ratio >= cfg.CompletenessFloor,
		SLOFired:            slo.FiredAfterSec > 0 && slo.WithinWindows <= 2,
		SLOCleared:          slo.Cleared && slo.Trips == 1,
	}

	t := &Table{
		Title:  "Telemetry plane: overhead, convergence, trace completeness, SLO burn",
		Header: []string{"Phase", "Measured", "Bound", "Pass"},
	}
	t.Rows = append(t.Rows,
		[]string{"overhead", fmt.Sprintf("%+.2f%% per step (%.3f vs %.3f ms)", over.OverheadPct, over.AgentPerStepMS, over.BasePerStepMS),
			fmt.Sprintf("<= %.0f%%", 100*cfg.OverheadBound), fmt.Sprintf("%v", rep.Checks.OverheadWithin)},
		[]string{"convergence (clean)", fmt.Sprintf("equal after every period over %d", conv.Periods),
			"1 period", fmt.Sprintf("%v", rep.Checks.ConvergesClean)},
		[]string{"convergence (lossy)", fmt.Sprintf("healed in %d period(s), %d drops, %d chain breaks", conv.DropLagPeriods, conv.DroppedReports, conv.DeltaChainBreak),
			fmt.Sprintf("<= %d periods", cfg.DropLagMax), fmt.Sprintf("%v", rep.Checks.ConvergesUnderDrops)},
		[]string{"completeness", fmt.Sprintf("%d/%d trees (%.1f%%), %d reports dropped", compl.Complete, compl.Jobs, 100*compl.Ratio, compl.Dropped),
			fmt.Sprintf(">= %.0f%%", 100*cfg.CompletenessFloor), fmt.Sprintf("%v", rep.Checks.CompletenessOK)},
		[]string{"slo burn", fmt.Sprintf("fired after %ds (%.1f windows), cleared %v, %d trip(s)", slo.FiredAfterSec, slo.WithinWindows, slo.Cleared, slo.Trips),
			"<= 2 fast windows, 1 trip", fmt.Sprintf("%v", rep.Checks.SLOFired && rep.Checks.SLOCleared)},
	)
	if !rep.Checks.ok() {
		return t, rep, fmt.Errorf("telemetry acceptance checks failed: %+v", rep.Checks)
	}
	return t, rep, nil
}
