// Package appflags consolidates the command-line surface shared by the
// repo's long-running commands (cmd/gridnode, cmd/gridgate). Each struct
// groups one concern's flags, registers them on a caller-supplied
// flag.FlagSet, and knows how to build the corresponding application
// Params — so the two binaries that must agree on a program shape
// (every process in a run builds the identical chare array) parse and
// validate it through the same code instead of two drifting copies.
package appflags

import (
	"flag"
	"fmt"
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

// Cluster is the multi-process deployment surface: which node this
// process is, where everyone listens, and how the PE space maps onto
// the two-cluster topology.
type Cluster struct {
	Node       int
	Addrs      string
	Procs      int
	Latency    time.Duration
	Split      int
	Reliable   bool
	Membership bool
	Joiners    string
}

// Register installs the cluster flags on fs under their historical
// names (-node, -addrs, ...).
func (c *Cluster) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Node, "node", 0, "this process's node index")
	fs.StringVar(&c.Addrs, "addrs", "", "comma-separated listen addresses, one per node")
	fs.IntVar(&c.Procs, "procs", 4, "total PEs across all nodes")
	fs.DurationVar(&c.Latency, "latency", 1725*time.Microsecond, "one-way inter-cluster latency; sub-millisecond values are honoured to ~0.1 ms on Linux")
	fs.IntVar(&c.Split, "split", 0, "PE index where cluster 1 begins (unequal co-allocations; 0 = procs/2)")
	fs.BoolVar(&c.Reliable, "reliable", false, "interpose the end-to-end reliability layer over TCP")
	fs.BoolVar(&c.Membership, "membership", false, "elastic cluster membership: join/drain/death handling (implies -reliable; node 0 coordinates)")
	fs.StringVar(&c.Joiners, "joiners", "", "comma-separated node indices that start outside the member set and join mid-run (identical on every process)")
}

// Layout is the resolved cluster geometry every process derives
// identically from its Cluster flags.
type Layout struct {
	Addrs   []string
	AddrMap map[int]string
	Nodes   int
	PerNode int
	Split   int
	Topo    *topology.Topology
}

// NodeOf maps a PE to the node hosting it.
func (l *Layout) NodeOf(pe int) int { return pe / l.PerNode }

// PELo and PEHi bound the contiguous PE range node hosts.
func (l *Layout) PELo(node int) int { return node * l.PerNode }
func (l *Layout) PEHi(node int) int { return (node + 1) * l.PerNode }

// Resolve validates the cluster flags and builds the shared geometry:
// the address table, the even PE split across processes, and the
// two-cluster topology with the injected wide-area latency.
func (c *Cluster) Resolve() (*Layout, error) {
	addrs := strings.Split(c.Addrs, ",")
	nodes := len(addrs)
	if c.Addrs == "" || nodes < 2 {
		return nil, fmt.Errorf("need -addrs with at least two addresses")
	}
	if c.Node < 0 || c.Node >= nodes {
		return nil, fmt.Errorf("node %d out of range for %d addresses", c.Node, nodes)
	}
	if c.Procs%nodes != 0 {
		return nil, fmt.Errorf("procs=%d not divisible by %d nodes", c.Procs, nodes)
	}
	split := c.Split
	if split == 0 {
		split = c.Procs / 2
	}
	if split <= 0 || split >= c.Procs {
		return nil, fmt.Errorf("split=%d out of range for %d PEs", split, c.Procs)
	}
	topo, err := topology.New([]int{split, c.Procs - split}, topology.WithInterLatency(c.Latency))
	if err != nil {
		return nil, err
	}
	addrMap := make(map[int]string, nodes)
	for i, a := range addrs {
		addrMap[i] = a
	}
	return &Layout{
		Addrs: addrs, AddrMap: addrMap,
		Nodes: nodes, PerNode: c.Procs / nodes,
		Split: split, Topo: topo,
	}, nil
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
	v := 1
	for v*v < st.Objects {
		v++
	}
	if v*v != st.Objects {
		return nil, fmt.Errorf("objects=%d is not a perfect square", st.Objects)
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
// open-ended backend mode where tasks arrive from a gateway at runtime
// instead of being enumerated up front.
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
	fs.BoolVar(&f.Serve, "serve", false, "taskfarm: run as an open-ended service backend (tasks arrive from a gateway)")
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

// Register installs the observability flags; traceCapDefault keeps the
// historical default (trace.DefaultCapacity) without importing trace
// here on behalf of commands that don't trace. Pass 0 to default
// -trace-cap to auto sizing (see TraceRingCap).
func (o *Obs) Register(fs *flag.FlagSet, traceCapDefault int) {
	fs.StringVar(&o.MetricsAddr, "metrics", "", "serve the metrics registry over HTTP on this address (e.g. 127.0.0.1:9300)")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file when the run completes")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write this node's causal trace snapshot (for cmd/gridtrace) to this file")
	fs.IntVar(&o.TraceCap, "trace-cap", traceCapDefault, "per-PE trace ring capacity (events; rounded up to a power of two; 0 = auto: full ring for -trace-out, small drained ring for -telemetry alone)")
	fs.BoolVar(&o.Pprof, "pprof", false, "mount net/http/pprof on the diagnostics HTTP server (needs -metrics or -listen)")
	fs.BoolVar(&o.Telemetry, "telemetry", false, "run a telemetry agent shipping metric deltas and trace digests to the cluster collector over the control path")
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
