// Package appflags is the command-line surface shared by cmd/gridnode
// and gridsim run, one struct per concern. Each struct registers its
// flags on a caller-supplied flag.FlagSet; App.Build is the one place an
// application's flags become a core.Program and Report the one place its
// result becomes a line of output. The parameter validation every
// process of a run must agree on (each builds the identical chare array)
// lives apart from the node wiring and is tested on its own.
package appflags

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"gridmdo/internal/balance"
	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/metrics"
	"gridmdo/internal/stencil"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// Topology is the machine every executor runs: the PE count, split into
// two sites joined by the injected wide-area latency.
type Topology struct {
	Procs   int
	Latency time.Duration
	Split   int
}

func (t *Topology) Register(fs *flag.FlagSet) {
	fs.IntVar(&t.Procs, "procs", 4, "total PEs across all nodes")
	fs.DurationVar(&t.Latency, "latency", 1725*time.Microsecond, "one-way inter-cluster latency; sub-millisecond values are honoured to ~0.1 ms on Linux")
	fs.IntVar(&t.Split, "split", 0, "PE index where cluster 1 begins (unequal co-allocations; 0 = procs/2)")
}

// Build validates the topology flags and builds the two-site machine:
// an even split by default (the paper's two-cluster machine), or -split
// for an unequal co-allocation, where one site contributes more PEs and
// the wide-area boundary need not coincide with a process boundary.
func (t *Topology) Build() (*topology.Topology, error) {
	split := t.Split
	if split == 0 {
		split = t.Procs / 2
	}
	if split <= 0 || split >= t.Procs {
		return nil, fmt.Errorf("split=%d out of range for %d PEs", split, t.Procs)
	}
	return topology.New([]int{split, t.Procs - split}, topology.WithInterLatency(t.Latency))
}

// Cluster is the multi-process deployment surface: which node this
// process is, where everyone listens, and the machine they share.
type Cluster struct {
	Topology
	Node       int
	Addrs      string
	Membership bool
	Joiners    string
}

// Register installs the cluster flags, the topology group's included,
// under their historical names (-node, -addrs, ...).
func (c *Cluster) Register(fs *flag.FlagSet) {
	c.Topology.Register(fs)
	fs.IntVar(&c.Node, "node", 0, "this process's node index")
	fs.StringVar(&c.Addrs, "addrs", "", "comma-separated listen addresses, one per node (one address: every PE in this process)")
	fs.BoolVar(&c.Membership, "membership", false, "elastic cluster membership: join/drain/death handling (node 0 coordinates)")
	fs.StringVar(&c.Joiners, "joiners", "", "comma-separated node indices that start outside the member set and join mid-run (identical on every process)")
}

// Resolve validates the cluster flags and builds the cluster every
// process derives identically — the address list, one node per address
// (the node count must divide the PE count), and the two-cluster
// topology with the injected wide-area latency — with this process
// hosting node c.Node. One address is a one-process cluster: node 0
// hosts every PE, and both sites' traffic crosses the injected latency
// inside it.
func (c *Cluster) Resolve() (*core.ClusterSpec, error) {
	if c.Addrs == "" {
		return nil, fmt.Errorf("need -addrs with at least one address")
	}
	addrs := strings.Split(c.Addrs, ",")
	nodes := len(addrs)
	if c.Node < 0 || c.Node >= nodes {
		return nil, fmt.Errorf("node %d out of range for %d addresses", c.Node, nodes)
	}
	if c.Procs%nodes != 0 {
		return nil, fmt.Errorf("procs=%d not divisible by %d nodes", c.Procs, nodes)
	}
	topo, err := c.Topology.Build()
	if err != nil {
		return nil, err
	}
	return &core.ClusterSpec{Topo: topo, Nodes: nodes, Addrs: addrs, Local: []int{c.Node}}, nil
}

// JoinerSet parses -joiners against the resolved node count.
func (c *Cluster) JoinerSet(nodes int) (map[int]bool, error) {
	joiner := make(map[int]bool)
	if c.Joiners == "" {
		return joiner, nil
	}
	for _, s := range strings.Split(c.Joiners, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 || n >= nodes {
			return nil, fmt.Errorf("bad -joiners entry %q (want node indices in [1,%d))", s, nodes)
		}
		joiner[n] = true
	}
	return joiner, nil
}

// App is the application surface: -app names one application, and each
// application's flags form a group.
type App struct {
	Name string
	Sim
	Stencil
	LeanMD
	Farm
}

// Env is what building a program needs beyond its application's flags.
type Env struct {
	Procs   int                     // total PEs: the farm's worker count
	Node    int                     // this process's node; node 0 of a serve farm hosts its service
	Metrics *metrics.Registry       // the registry the farm publishes its series into
	Elastic *taskfarm.ElasticConfig // -membership placement, or nil
}

// Built is an assembled application. A taskfarm adds its Params (the
// drain hook is late-bound on them) and, on node 0 of a -serve farm, its
// ingest service, which owns the farm's completion hook.
type Built struct {
	Program *core.Program
	Farm    *taskfarm.Params
	Service *taskfarm.Service
}

// Build assembles the application a.Name names. The stencil and LeanMD
// carry their cost models: the virtual-time engine charges them, and the
// real-time runtime, which measures handlers instead, ignores them.
func (a *App) Build(env Env) (*Built, error) {
	if a.LB != "" && (a.Name == "leanmd" || a.Name == "taskfarm") {
		return nil, fmt.Errorf("-lb supports -app stencil only")
	}
	switch a.Name {
	case "stencil":
		p, err := a.Stencil.Params(a.Sim, env.Elastic)
		if err != nil {
			return nil, err
		}
		p.Model = stencil.DefaultModel()
		prog, err := stencil.BuildProgram(p)
		return &Built{Program: prog}, err
	case "leanmd":
		if env.Elastic != nil {
			return nil, fmt.Errorf("-membership supports -app stencil and taskfarm only")
		}
		p := a.LeanMD.Params(a.Sim)
		p.Model = leanmd.DefaultModel()
		prog, _, err := leanmd.BuildProgram(p)
		return &Built{Program: prog}, err
	case "taskfarm":
		b := &Built{Farm: a.Farm.Params(env.Procs, env.Metrics, env.Elastic)}
		var err error
		if b.Farm.Serve && env.Node == 0 {
			if b.Service, err = taskfarm.NewService(b.Farm); err != nil {
				return nil, err
			}
		}
		b.Program, err = taskfarm.BuildProgram(b.Farm)
		return b, err
	default:
		return nil, fmt.Errorf("unknown app %q", a.Name)
	}
}

// Report writes the one-line account of a finished program's result.
// LeanMD's line carries the energies as well as the drift, so runs on
// different executors can be compared.
func Report(w io.Writer, v any) {
	switch res := v.(type) {
	case *stencil.Result:
		fmt.Fprintf(w, "stencil: per-step %v, total %v, checksum %.6f\n", res.PerStep, res.Total, res.Checksum)
	case *leanmd.Result:
		fmt.Fprintf(w, "leanmd: per-step %v, total %v, energy %.6f -> %.6f, drift %.4f%%\n",
			res.PerStep, res.Total, res.EWarm, res.EFinal, 100*res.Drift())
	case *taskfarm.Result:
		fmt.Fprintf(w, "taskfarm: tasks %d, makespan %v, checksum %#x, shards %d, steals %d, stolen %d\n",
			res.Tasks, res.Makespan, res.Checksum, res.Shards, res.Steals, res.StolenTask)
	default:
		fmt.Fprintf(w, "result: %v\n", v)
	}
}

// Sim carries the step counts shared by the time-stepped applications.
type Sim struct {
	Steps  int
	Warmup int
}

func (s *Sim) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Steps, "steps", 10, "time steps")
	fs.IntVar(&s.Warmup, "warmup", 3, "warmup steps")
}

// Stencil groups the 5-point stencil application's flags.
type Stencil struct {
	Objects  int
	Width    int
	LB       string
	LBPeriod int
}

func (st *Stencil) Register(fs *flag.FlagSet) {
	fs.IntVar(&st.Objects, "objects", 64, "stencil: virtualization degree (perfect square)")
	fs.IntVar(&st.Width, "width", 1024, "stencil: mesh width and height")
	fs.StringVar(&st.LB, "lb", "", "AtSync load balancing: greedy|refine|grid (stencil only)")
	fs.IntVar(&st.LBPeriod, "lb-period", 0, "balance every N steps (0: one round at steps/2)")
}

// strategyByName resolves a -lb flag value to a balancing strategy.
func strategyByName(name string) (core.Strategy, error) {
	switch name {
	case "greedy":
		return balance.Greedy{}, nil
	case "refine":
		return balance.Refine{}, nil
	case "grid":
		return balance.Grid{}, nil
	default:
		return nil, fmt.Errorf("unknown -lb strategy %q (want greedy, refine, or grid)", name)
	}
}

// Params builds the stencil parameters. With elastic set (-membership),
// initial placement is confined to the founding nodes' PEs.
func (st *Stencil) Params(sim Sim, elastic *taskfarm.ElasticConfig) (*stencil.Params, error) {
	v, err := stencil.Side(st.Objects)
	if err != nil {
		return nil, err
	}
	p := &stencil.Params{
		Width: st.Width, Height: st.Width, VX: v, VY: v,
		Steps: sim.Steps, Warmup: sim.Warmup,
	}
	if st.LB != "" {
		s, err := strategyByName(st.LB)
		if err != nil {
			return nil, err
		}
		p.LB = s
		if st.LBPeriod > 0 {
			p.LBEvery = st.LBPeriod
		} else {
			p.LBAtStep = sim.Steps / 2
		}
	}
	if elastic != nil {
		nObj := v * v
		p.InitialMap = func(i, numPE int) int {
			var act []int
			for pe := 0; pe < numPE; pe++ {
				if elastic.ActiveNode(elastic.NodeOf(pe)) {
					act = append(act, pe)
				}
			}
			if len(act) == 0 {
				return 0
			}
			return act[core.BlockMap(i, nObj, len(act))]
		}
	}
	return p, nil
}

// LeanMD groups the molecular-dynamics application's flags.
type LeanMD struct {
	Cells int
	Atoms int
}

func (l *LeanMD) Register(fs *flag.FlagSet) {
	fs.IntVar(&l.Cells, "cells", 4, "leanmd: cells per axis")
	fs.IntVar(&l.Atoms, "atoms", 8, "leanmd: atoms per cell")
}

// Params builds the leanmd parameters.
func (l *LeanMD) Params(sim Sim) *leanmd.Params {
	p := leanmd.DefaultParams()
	p.NX, p.NY, p.NZ = l.Cells, l.Cells, l.Cells
	p.AtomsPerCell = l.Atoms
	p.Steps, p.Warmup = sim.Steps, sim.Warmup
	return p
}

// Farm groups the taskfarm application's flags, including -serve: the
// open-ended mode where tasks arrive at runtime through node 0's HTTP
// gateway instead of being enumerated up front.
type Farm struct {
	Tasks    int
	Shards   int
	Batch    int
	Steal    bool
	Prefetch int
	Spin     int
	Skew     float64
	Serve    bool
}

func (f *Farm) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Tasks, "tasks", 2000, "taskfarm: task count")
	fs.IntVar(&f.Shards, "shards", 1, "taskfarm: dispatcher shard count (-shards 1 -batch 1 = single master)")
	fs.IntVar(&f.Batch, "batch", 16, "taskfarm: max tasks per grant message (>= 1)")
	fs.BoolVar(&f.Steal, "steal", false, "taskfarm: enable randomized work stealing between shards")
	fs.IntVar(&f.Prefetch, "prefetch", 2, "taskfarm: per-worker prefetch depth")
	fs.IntVar(&f.Spin, "spin", 20000, "taskfarm: wall-clock spin iterations per task")
	fs.Float64Var(&f.Skew, "skew", 1, "taskfarm: per-task cost ramp 1x..skew-x across the task space")
	fs.BoolVar(&f.Serve, "serve", false, "taskfarm: run as an open-ended service; node 0 is the HTTP job gateway (see -listen)")
}

// Params builds the taskfarm parameters. In serve mode the enumerated
// task count is ignored (the farm's task space is open-ended).
func (f *Farm) Params(workers int, reg *metrics.Registry, elastic *taskfarm.ElasticConfig) *taskfarm.Params {
	p := &taskfarm.Params{
		Tasks: f.Tasks, Workers: workers,
		Prefetch: f.Prefetch, Spin: f.Spin,
		Shards: f.Shards, Batch: f.Batch, Steal: f.Steal,
		CostSkew: f.Skew, Seed: 1,
		Metrics: reg,
		Elastic: elastic,
	}
	if f.Serve {
		p.Serve = true
		p.Tasks = 0
	}
	return p
}

// Obs groups the observability artifact flags.
type Obs struct {
	MetricsAddr string
	MetricsOut  string
	TraceOut    string
	TraceCap    int

	Pprof             bool
	Telemetry         bool
	TelemetryInterval time.Duration
}

// Register installs the observability flags. -trace-cap defaults to 0,
// auto sizing (see TraceRingCap).
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.MetricsAddr, "metrics", "", "serve the metrics registry over HTTP on this address (e.g. 127.0.0.1:9300)")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file when the run completes")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write this node's causal trace snapshot (for cmd/gridtrace) to this file")
	fs.IntVar(&o.TraceCap, "trace-cap", 0, "per-PE trace ring capacity (events; rounded up to a power of two; 0 = auto: full ring for -trace-out, small drained ring for -telemetry alone)")
	fs.BoolVar(&o.Pprof, "pprof", false, "mount net/http/pprof on the diagnostics HTTP server (needs -metrics, or -listen on a gateway)")
	fs.BoolVar(&o.Telemetry, "telemetry", false, "run a telemetry agent shipping metric deltas and trace digests to node 0's cluster collector over the control path")
	fs.DurationVar(&o.TelemetryInterval, "telemetry-interval", 500*time.Millisecond, "telemetry agent reporting period")
}

// TraceRingCap resolves the per-PE trace ring capacity for this
// configuration. An explicit -trace-cap wins. Otherwise the ring is
// sized to its consumer: -trace-out keeps the whole run for a
// post-mortem snapshot (trace.DefaultCapacity), while a -telemetry-only
// tracer is drained every reporting interval and gets the small
// GC-friendly ring (trace.DrainedCapacity) — ring slots are
// pointer-bearing, so resident ring size is GC scan work on every
// cycle, not just memory.
func (o *Obs) TraceRingCap() int {
	if o.TraceCap > 0 {
		return o.TraceCap
	}
	if o.TraceOut != "" {
		return trace.DefaultCapacity
	}
	return trace.DrainedCapacity
}
