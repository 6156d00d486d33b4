package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// This file is the benchmark's vocabulary: the workloads and the metrics,
// by name. BENCHMARK.json is generated from it (-spec) and a test checks
// the two agree, so a name exists in one place.

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
// The driver makes 4 + 22 runs per gating workload inside 3420 s; five
// workloads leave each run about 27 s.
const runSeconds = 24

// metricDef names one metric. README.md defines each, and says for every
// per-layer metric which end-to-end metric it should move and on which
// workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may get worse by
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// endToEndDef finds an end-to-end metric by name.
func endToEndDef(name string) (metricDef, bool) {
	for _, def := range endToEnd {
		if def.Name == name {
			return def, true
		}
	}
	return metricDef{}, false
}

var perLayer = []metricDef{
	// Measured end to end, but too unsteady on a shared host to gate on.
	{Name: "op_time_p50_us", Unit: "us", Better: "lower"},

	// Probes: direct calls into one layer's public functions, no runtime.
	{Name: "core.queue.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec.f64_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec.f64x256_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec.bundle4_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec.f64x256_allocs", Unit: "count", Better: "lower"},
	{Name: "vmi.frame.codec2k_ns", Unit: "ns", Better: "lower"},
	{Name: "vmi.delay.pass_ns", Unit: "ns", Better: "lower"},
	{Name: "vmi.delay.late_us_p50", Unit: "us", Better: "lower"},
	{Name: "vmi.stack.oneway_us_p50", Unit: "us", Better: "lower"},
	{Name: "vmi.stack.frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "vmi.stack.bulk_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "stencil.seq_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "leanmd.forces_us", Unit: "us", Better: "lower"},

	// Traced pass: public hooks around the running program.
	{Name: "core.sched.handlers", Unit: "count", Better: "lower"},
	{Name: "core.sched.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.sched.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.sched.queue_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.sched.idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.route.local_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.route.remote_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.masked_frac", Unit: "ratio", Better: "higher"},
	{Name: "vmi.tcp.frames_per_write", Unit: "ratio", Better: "higher"},
	{Name: "vmi.tcp.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "vmi.tcp.stalls", Unit: "count", Better: "lower"},
	{Name: "vmi.rel.retransmits", Unit: "count", Better: "lower"},
	{Name: "vmi.rel.acks_per_frame", Unit: "ratio", Better: "lower"},
	{Name: "vmi.delay.high_water", Unit: "count", Better: "lower"},
	{Name: "msg.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "msg.bulk_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "taskfarm.assign_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "taskfarm.grants_per_task", Unit: "ratio", Better: "lower"},
	{Name: "taskfarm.steals", Unit: "count", Better: "lower"},
	{Name: "taskfarm.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "gate.admit_us_p50", Unit: "us", Better: "lower"},
	{Name: "gate.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "gate.farm_us_p50", Unit: "us", Better: "lower"},
	{Name: "gate.http_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "gate.job_p99_us", Unit: "us", Better: "lower"},
	{Name: "gate.rejected", Unit: "count", Better: "lower"},
	{Name: "gate.duplicates", Unit: "count", Better: "lower"},
	{Name: "telemetry.report_us_p50", Unit: "us", Better: "lower"},
	{Name: "telemetry.report_bytes", Unit: "B", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.msgs", Unit: "count", Better: "lower"},
	{Name: "sim.virtual_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.shards", Unit: "count", Better: "higher"},
	{Name: "sim.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "go.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "budget.residual_frac", Unit: "ratio", Better: "lower"},
}

type workloadDef struct {
	Name string
	Why  string
	// Gating workloads are the ones BENCHMARK.json names: the driver runs
	// them and holds their end-to-end metrics to the bounds. The others run
	// in the full report only. Every run of a gating workload is one more
	// chance for a slow spell of the shared host to fail the check, and the
	// driver's time is split among them, so there are few.
	Gating bool
	New    func(cfg runConfig) (runner, error)
	// Probes times the layers this workload runs, directly, with no
	// runtime around them; its results are per-layer metrics.
	Probes func() map[string]float64
}

var workloads = []workloadDef{
	{Name: "stencil_wan", Why: "paper Fig. 3: 768x768 stencil, 64 objects, two TCP-joined nodes, 4 ms WAN; compute fits under the latency, so a step costs the latency unless the scheduler stops overlapping",
		Gating: true, New: newStencilRunner, Probes: stencilProbes},
	{Name: "leanmd_wan", Why: "paper Fig. 4: LeanMD 216 cells, 3,024 pair objects, 8 ms WAN; thousands of objects, multicast, many small struct messages",
		Gating: true, New: newLeanMDRunner, Probes: leanmdProbes},
	{Name: "msg_local", Why: "ping-pong inside one runtime: queue, scheduler and router with no codec, VMI or socket; bypass for every codec and VMI change",
		New: func(c runConfig) (runner, error) { return newMsgRunner("msg_local", c) }, Probes: localProbes},
	{Name: "msg_tcp", Why: "the same ping-pong across TCP+Reliable at zero latency with an 8-byte payload: per-message cost (codec, frame, acks, coalescing) dominates",
		New: func(c runConfig) (runner, error) { return newMsgRunner("msg_tcp", c) }, Probes: wireProbes},
	{Name: "msg_bulk", Why: "the same with a 2 KiB []float64: per-byte cost dominates, so a small-message gain that costs bulk shows",
		New: func(c runConfig) (runner, error) { return newMsgRunner("msg_bulk", c) }, Probes: wireProbes},
	{Name: "farm_tasks", Why: "sharded task farm across two nodes, one grant and one result message per task: dispatch is the bottleneck, 1/ops_per_s is the measured assignment time",
		Gating: true, New: newFarmRunner, Probes: wireProbes},
	{Name: "gate_jobs", Why: "HTTP gateway over a serve-mode farm: closed loop of 2 waiting clients for unloaded latency, then no-wait POSTs for ingress-bound throughput",
		Gating: true, New: newGateRunner, Probes: noProbes},
	{Name: "sim_wave", Why: "token wave on the virtual-time engines, 1,024 PEs, 0.4 M events: heap, window and barrier cost; bypass for every real-runtime change",
		Gating: true, New: newSimRunner, Probes: noProbes},
}

func noProbes() map[string]float64 { return nil }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) || seen[name] {
			return fmt.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := use(w.Name); err != nil {
			return nil, err
		}
		if !w.Gating {
			continue
		}
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		if err := use(m.Name); err != nil {
			return nil, err
		}
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		if err := use(m.Name); err != nil {
			return nil, err
		}
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
