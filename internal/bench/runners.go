package bench

import (
	"fmt"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

func buildTopo(procs int, lat time.Duration) (*topology.Topology, error) {
	if procs == 1 {
		return topology.Single(1)
	}
	return topology.TwoClusters(procs, lat)
}

func (c StencilConfig) params(objects int, model bool) (*stencil.Params, error) {
	v, err := stencil.Side(objects)
	if err != nil {
		return nil, err
	}
	p := &stencil.Params{
		Width: c.Width, Height: c.Height,
		VX: v, VY: v,
		Steps: c.Steps, Warmup: c.Warmup,
	}
	if model {
		p.Model = c.Model
	}
	return p, nil
}

// StencilSim runs the stencil on the virtual-time engine with the
// Itanium-calibrated cost model ("artificial latency" instrument).
func StencilSim(cfg StencilConfig, procs, objects int, lat time.Duration, opts sim.Options) (*stencil.Result, error) {
	return result[stencil.Result](runSim(cfg.program(objects, true), procs, lat, opts))
}

// StencilSimParams runs the stencil on the virtual-time engine from
// explicit stencil parameters (used by ablations that tweak placement or
// load balancing).
func StencilSimParams(p *stencil.Params, procs int, lat time.Duration) (*stencil.Result, error) {
	return result[stencil.Result](runSim(stencilProgram(p), procs, lat, sim.Options{}))
}

// StencilRealtime runs the stencil on the real-time runtime in one
// process, with the delay device injecting the WAN latency (the paper's
// simulated-Grid environment, wall-clock measured).
func StencilRealtime(cfg StencilConfig, procs, objects int, lat time.Duration, opts ...core.Option) (*stencil.Result, error) {
	return result[stencil.Result](runRealtime(cfg.program(objects, false), procs, lat, opts))
}

// StencilTCP runs the stencil across two runtimes joined by real TCP
// sockets (one per cluster) with the delay device supplying the WAN
// flight time — the "real latency" validation pathway of Table 1.
func StencilTCP(cfg StencilConfig, procs, objects int, lat time.Duration, opts ...core.Option) (*stencil.Result, error) {
	return result[stencil.Result](runTwoNodeTCP(procs, lat, cfg.program(objects, false), opts...))
}

// StencilTCPParams runs the stencil across the two TCP-joined runtimes
// from explicit stencil parameters — the two-process counterpart of
// StencilSimParams, used by experiments that tweak placement or load
// balancing and want real sockets under the migration traffic.
func StencilTCPParams(p *stencil.Params, procs int, lat time.Duration, opts ...core.Option) (*stencil.Result, error) {
	return result[stencil.Result](runTwoNodeTCP(procs, lat, stencilProgram(p), opts...))
}

// program returns a builder of the stencil program at this
// virtualization degree; model attaches the cost model.
func (c StencilConfig) program(objects int, model bool) func() (*core.Program, error) {
	return func() (*core.Program, error) {
		p, err := c.params(objects, model)
		if err != nil {
			return nil, err
		}
		return stencil.BuildProgram(p)
	}
}

func stencilProgram(p *stencil.Params) func() (*core.Program, error) {
	return func() (*core.Program, error) { return stencil.BuildProgram(p) }
}

func (c MDConfig) params(model bool) *leanmd.Params {
	p := leanmd.DefaultParams()
	p.NX, p.NY, p.NZ = c.NX, c.NY, c.NZ
	p.AtomsPerCell = c.AtomsPerCell
	p.Steps, p.Warmup = c.Steps, c.Warmup
	if model {
		p.Model = c.Model
	}
	return p
}

// LeanMDSim runs LeanMD on the virtual-time engine.
func LeanMDSim(cfg MDConfig, procs int, lat time.Duration, opts sim.Options) (*leanmd.Result, error) {
	return result[leanmd.Result](runSim(cfg.program(true), procs, lat, opts))
}

// LeanMDRealtime runs LeanMD on the real-time runtime in one process.
func LeanMDRealtime(cfg MDConfig, procs int, lat time.Duration, opts ...core.Option) (*leanmd.Result, error) {
	return result[leanmd.Result](runRealtime(cfg.program(false), procs, lat, opts))
}

// LeanMDTCP runs LeanMD across two TCP-joined runtimes.
func LeanMDTCP(cfg MDConfig, procs int, lat time.Duration, opts ...core.Option) (*leanmd.Result, error) {
	return result[leanmd.Result](runTwoNodeTCP(procs, lat, cfg.program(false), opts...))
}

func (c MDConfig) program(model bool) func() (*core.Program, error) {
	return func() (*core.Program, error) {
		prog, _, err := leanmd.BuildProgram(c.params(model))
		return prog, err
	}
}

// result types a runner's program result.
func result[T any](v any, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return v.(*T), nil
}

// runSim runs the program on the virtual-time engine.
func runSim(mkProg func() (*core.Program, error), procs int, lat time.Duration, opts sim.Options) (any, error) {
	prog, err := mkProg()
	if err != nil {
		return nil, err
	}
	topo, err := buildTopo(procs, lat)
	if err != nil {
		return nil, err
	}
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 500_000_000
	}
	e, err := sim.New(topo, prog, opts)
	if err != nil {
		return nil, err
	}
	v, _, err := e.Run()
	return v, err
}

// runRealtime runs the program on the real-time runtime in one process.
func runRealtime(mkProg func() (*core.Program, error), procs int, lat time.Duration, opts []core.Option) (any, error) {
	prog, err := mkProg()
	if err != nil {
		return nil, err
	}
	topo, err := buildTopo(procs, lat)
	if err != nil {
		return nil, err
	}
	rt, err := core.NewRuntime(topo, prog, opts...)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}

// runTwoNodeTCP hosts a two-cluster machine as two Runtimes in this
// process, one per cluster, connected by the VMI TCP transport on
// loopback. The program's result is produced on node 0.
func runTwoNodeTCP(procs int, lat time.Duration, mkProg func() (*core.Program, error), opts ...core.Option) (any, error) {
	if procs < 2 || procs%2 != 0 {
		return nil, fmt.Errorf("bench: two-node TCP run needs an even PE count >= 2, got %d", procs)
	}
	topo, err := topology.TwoClusters(procs, lat)
	if err != nil {
		return nil, err
	}
	// Peek at the assembled options so the transport stacks share the
	// harness registry (per-device series) with the runtimes (per-PE
	// series).
	var peek core.Options
	for _, o := range opts {
		o(&peek)
	}
	c, err := core.StartCluster(core.ClusterSpec{
		Topo:    topo,
		Nodes:   2,
		Program: func(int) (*core.Program, error) { return mkProg() },
		Builder: func(_ int, b *vmi.ChainBuilder) { b.Metrics(peek.Metrics) },
		Options: func(int) []core.Option { return opts },
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Run()
}
