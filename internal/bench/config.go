// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Figure 3, Table 1, Figure 4,
// Table 2) plus the ablations called out in DESIGN.md, and formats them as
// the same rows/series the paper reports.
//
// Two measurement instruments are used (see DESIGN.md §5):
//
//   - The virtual-time engine (internal/sim, run through Sim) with
//     Itanium-calibrated cost models reproduces the paper's absolute
//     scale and its shapes deterministically; this is the "artificial
//     latency" column/curve.
//   - The real-time runtime, started through Host — one node with the VMI
//     delay device, or two nodes over real TCP sockets — provides the
//     "real" validation pathway: the same program, wall-clock measured,
//     with the delay device standing in for the wide area exactly as in
//     the paper's simulated-Grid environment.
package bench

import (
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/metrics"
	"gridmdo/internal/stencil"
)

// Profile selects experiment scale.
type Profile struct {
	Name string
	// Stencil and MD are the two applications' workloads, cost models
	// attached; each experiment sets what it sweeps (the object grid, a
	// placement, a balancer) on a copy.
	Stencil stencil.Params
	MD      leanmd.Params

	// Fig3Latencies is the artificial-latency sweep for Figure 3.
	Fig3Latencies []time.Duration
	// Fig4Latencies is the sweep for Figure 4.
	Fig4Latencies []time.Duration
	// RealLatency is the emulated NCSA–ANL one-way latency for the
	// Table 1/2 validation columns.
	RealLatency time.Duration

	// IrregularVertices sizes the irregular-mesh generality experiment.
	IrregularVertices int

	// Farm sizes the taskfarm-at-scale experiment (taskfarm-scale).
	Farm FarmConfig

	// Membership sizes the elastic-membership recovery experiment
	// (membership).
	Membership MembershipConfig

	// Gate sizes the gateway soak experiment (gate-soak).
	Gate GateConfig

	// Metrics, when non-nil, instruments every real-time runtime and TCP
	// stack the harness constructs (the Table 1/2 host and TCP columns).
	// The registry accumulates across runs; gridsim -metrics-out writes
	// its snapshot next to the CSV results.
	Metrics *metrics.Registry

	// TraceDir, when non-empty, attaches a fresh causal tracer to every
	// real-time run (host delay-device and TCP columns) and drops a
	// trace snapshot plus an overlap report per run into this directory.
	// Analyze the snapshots with cmd/gridtrace.
	TraceDir string
}

// rtOpts are the runtime options every real-time run of this profile
// shares.
func (p Profile) rtOpts() []core.Option {
	if p.Metrics == nil {
		return nil
	}
	return []core.Option{core.WithMetrics(p.Metrics)}
}

// PaperProfile reproduces the paper's exact workloads: a 2048×2048 mesh
// and the 216-cell / 3,024-pair LeanMD benchmark, with the paper's
// latency sweeps and the measured TeraGrid one-way latency of 1.725 ms.
func PaperProfile() Profile {
	return Profile{
		Name: "paper",
		Stencil: stencil.Params{
			Width: 2048, Height: 2048,
			Steps: 12, Warmup: 4,
			Model: stencil.DefaultModel(),
		},
		MD:                mdParams(6, 12, 8, 3), // 12 atoms: numerics scale; time is charged at 200 model atoms
		Fig3Latencies:     msList(0, 1, 2, 4, 8, 16, 32),
		Fig4Latencies:     msList(1, 2, 4, 8, 16, 32, 64, 128, 256),
		RealLatency:       1725 * time.Microsecond,
		IrregularVertices: 60000,
		// One million 10ms tasks at 10µs assignment time: the single
		// master saturates at JT/AT = 1000 workers, the sweep runs two
		// decades past it. ~500 workers per dispatcher shard keeps each
		// shard at half its own knee.
		Farm: FarmConfig{
			Tasks: 1_000_000, AssignCost: 10 * time.Microsecond, Batch: 64,
			Workers:         []int{250, 500, 1000, 2000, 10000, 50000, 100000},
			WorkersPerShard: 500,
			Latency:         1725 * time.Microsecond,
		},
		// The same farm shape the chaos membership suite runs: small
		// enough to repeat per seed, long enough (Spin) that the kill
		// and the drain land squarely mid-run.
		// Workers must be a multiple of Nodes: block placement would
		// otherwise leave the last node (the kill victim) empty and the
		// kill would have nothing to recover.
		Membership: MembershipConfig{
			Nodes: 4, Tasks: 4000, Workers: 8, Spin: 80000, EventAfterGrants: 100,
			Seeds: []int64{1, 2, 3},
		},
		// The acceptance soak: 100k jobs from 1k connections with 10%
		// duplicate-key resubmits, then a 16-client flood against a
		// 256-deep tenant queue while a paced tenant submits every 5ms.
		// Flood concurrency is sized so the flood saturates the farm's
		// admission rate without monopolizing the host's cores — beyond
		// that the measurement degenerates into scheduler contention
		// between the in-process load generator and the server it drives.
		// The shallow gateMaxInflight makes the farm latency-bound (each task
		// crosses the 1ms inter-group hop, so drain ≈ gateMaxInflight/RTT):
		// the flood's cheap no-wait POSTs outrun the drain regardless of
		// host core count, the overload pools in the capped tenant queue,
		// and admission control must answer 429. The soak p99 bound is
		// Little's-law honest: 1000 waiting connections against a
		// few-kjob/s farm sit ≈ clients/throughput in queue.
		Gate: GateConfig{
			Procs:        8,
			BaselineJobs: 2000, BaselineClients: 16,
			SoakJobs: 100_000, SoakClients: 1000,
			PacedJobs: 200, PacedEvery: 5 * time.Millisecond,
			FloodClients: 16, FloodQueue: 256,
			SoakP99Bound: time.Second,
		},
	}
}

// FastProfile is a scaled-down configuration for tests and testing.B
// benchmarks: the same experiment structure at a fraction of the cost.
func FastProfile() Profile {
	return Profile{
		Name: "fast",
		Stencil: stencil.Params{
			Width: 512, Height: 512,
			Steps: 8, Warmup: 3,
			Model: stencil.DefaultModel(),
		},
		MD:                mdParams(4, 6, 6, 2),
		Fig3Latencies:     msList(0, 2, 8, 32),
		Fig4Latencies:     msList(1, 8, 64, 256),
		RealLatency:       1725 * time.Microsecond,
		IrregularVertices: 6000,
		// Same knee structure as the paper profile at 1/16 the task count
		// and a 100-worker knee (JT/AT = 10ms/100µs).
		Farm: FarmConfig{
			Tasks: 60_000, AssignCost: 100 * time.Microsecond, Batch: 32,
			Workers:         []int{50, 100, 200, 400, 1600},
			WorkersPerShard: 50,
			Latency:         time.Millisecond,
		},
		Membership: MembershipConfig{
			Nodes: 3, Tasks: 1200, Workers: 6, Spin: 20000, EventAfterGrants: 50,
			Seeds: []int64{1},
		},
		// Same phase structure as the paper soak at 1/25 the job count.
		Gate: GateConfig{
			Procs:        4,
			BaselineJobs: 400, BaselineClients: 8,
			SoakJobs: 4000, SoakClients: 64,
			PacedJobs: 50, PacedEvery: 5 * time.Millisecond,
			FloodClients: 16, FloodQueue: 64,
			SoakP99Bound: 500 * time.Millisecond,
		},
	}
}

// mdParams is LeanMD's default physics on a cells³ lattice with atoms
// per cell, cost model attached.
func mdParams(cells, atoms, steps, warmup int) leanmd.Params {
	p := *leanmd.DefaultParams()
	p.NX, p.NY, p.NZ = cells, cells, cells
	p.AtomsPerCell = atoms
	p.Steps, p.Warmup = steps, warmup
	p.Model = leanmd.DefaultModel()
	return p
}

func msList(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

// stencilRow is one (processors, objects) configuration.
type stencilRow struct {
	Procs, Objects int
}

// table1Rows are the exact (P, V) rows of the paper's Table 1; the same
// V-per-P sets define the curves of Figure 3's sub-plots.
func table1Rows() []stencilRow {
	return []stencilRow{
		{2, 4}, {2, 16}, {2, 64},
		{4, 4}, {4, 16}, {4, 64},
		{8, 16}, {8, 64}, {8, 256},
		{16, 16}, {16, 64}, {16, 256},
		{32, 64}, {32, 256}, {32, 1024},
		{64, 64}, {64, 256}, {64, 1024},
	}
}

// figure3Virt gives the virtualization degrees plotted for each processor
// count in Figure 3.
func figure3Virt(procs int) []int {
	switch {
	case procs <= 4:
		return []int{4, 16, 64}
	case procs <= 16:
		return []int{16, 64, 256}
	default:
		return []int{64, 256, 1024}
	}
}

// figure4Procs are the processor counts of Figure 4 and Table 2.
func figure4Procs() []int { return []int{2, 4, 8, 16, 32, 64} }
