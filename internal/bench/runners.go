package bench

import (
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// Sim runs prog on topo in virtual time. Every virtual-time run of an
// experiment comes through here, under one event budget: a ceiling that
// stops a runaway program, which no experiment comes near.
func Sim(topo *topology.Topology, prog *core.Program, opts sim.Options) (any, sim.Stats, error) {
	opts.MaxEvents = 500_000_000
	e, err := sim.New(topo, prog, opts)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	v, _, err := e.Run()
	return v, e.Stats(), err
}

// Host starts the two-cluster machine of procs PEs, lat apart, in real
// time as nodes in-process nodes through core.StartCluster; mk builds
// each node's program. One node is the paper's simulated Grid: the delay
// device is the only wide area. Two nodes, one per cluster, put real TCP
// sockets under the delay device. The caller runs and closes the
// cluster; node 0 produces the program's result.
func Host(procs, nodes int, lat time.Duration, mk func() (*core.Program, error), opts ...core.Option) (*core.Cluster, error) {
	topo, err := topology.TwoClusters(procs, lat)
	if err != nil {
		return nil, err
	}
	// Peek at the assembled options so the transport stacks share the
	// runtimes' registry (per-device series next to per-PE series).
	var peek core.Options
	for _, o := range opts {
		o(&peek)
	}
	return core.StartCluster(core.ClusterSpec{
		Topo:    topo,
		Nodes:   nodes,
		Program: func(int) (*core.Program, error) { return mk() },
		Builder: func(_ int, b *vmi.ChainBuilder) { b.Metrics(peek.Metrics) },
		Options: func(int) []core.Option { return opts },
	})
}

// simOn runs mk's program through Sim on the two-cluster machine of
// procs PEs, lat apart.
func simOn[T any](procs int, lat time.Duration, mk func() (*core.Program, error), opts sim.Options) (*T, error) {
	topo, err := topology.TwoClusters(procs, lat)
	if err != nil {
		return nil, err
	}
	prog, err := mk()
	if err != nil {
		return nil, err
	}
	v, _, err := Sim(topo, prog, opts)
	return result[T](v, err)
}

// hostOn runs mk's program on Host's nodes and returns node 0's result.
func hostOn[T any](procs, nodes int, lat time.Duration, mk func() (*core.Program, error), opts ...core.Option) (*T, error) {
	c, err := Host(procs, nodes, lat, mk, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return result[T](c.Run())
}

// result types a run's program result.
func result[T any](v any, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return v.(*T), nil
}

// stencilProgram builds sp's stencil decomposed into objects blocks (a
// perfect square). Each call builds from its own copy of sp.
func stencilProgram(sp stencil.Params, objects int) func() (*core.Program, error) {
	return func() (*core.Program, error) {
		v, err := stencil.Side(objects)
		if err != nil {
			return nil, err
		}
		p := sp
		p.VX, p.VY = v, v
		return stencil.BuildProgram(&p)
	}
}

// mdProgram builds mp's LeanMD. Each call builds from its own copy of mp.
func mdProgram(mp leanmd.Params) func() (*core.Program, error) {
	return func() (*core.Program, error) {
		p := mp
		prog, _, err := leanmd.BuildProgram(&p)
		return prog, err
	}
}
