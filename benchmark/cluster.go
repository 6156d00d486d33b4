package main

import (
	"fmt"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// observe is the instrumentation of the traced pass. It reaches the
// program only through public hooks: a metrics registry (counts) and the
// benchmark's own event sink (spans). A nil *observe is the untraced pass.
type observe struct {
	reg *metrics.Registry
	rec *recorder
}

// newObserve sizes the sink for numPE PEs and about events events in all.
func newObserve(numPE, events int) *observe {
	return &observe{reg: metrics.NewRegistry(), rec: newRecorder(numPE, events/numPE+1024)}
}

func (o *observe) registry() *metrics.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

func (o *observe) coreOpts() []core.Option {
	if o == nil {
		return nil
	}
	return []core.Option{core.WithMetrics(o.reg), core.WithSink(o.rec)}
}

// cluster is a two-cluster machine hosted as two Runtimes in this process,
// one per cluster, joined by two Reliable vmi stacks over real TCP sockets
// on the loopback interface — not a real link: wide-area latency comes from
// the runtime's delay device, and wire time is a memory copy in the kernel.
type cluster struct {
	rts    [2]*core.Runtime
	stacks [2]*vmi.Stack
}

// relLayers reports the Reliable layers' own repair counters, summed over
// both nodes. They are kept whether or not a registry is attached, so the
// untraced pass has them too.
func (c *cluster) relLayers(r *rep) {
	var data, acks, retransmits int64
	for _, s := range c.stacks {
		st := s.Reliable().Stats()
		data += st.DataSent
		acks += st.AcksSent
		retransmits += st.Retransmits
	}
	r.set("vmi.rel.retransmits", float64(retransmits))
	if data > 0 {
		r.set("vmi.rel.acks_per_frame", float64(acks)/float64(data))
	}
}

// newCluster builds the stacks and both runtimes (pesPerNode PEs each),
// constructing every element. mkProg is called once per node.
func newCluster(pesPerNode int, wan time.Duration, mkProg func() (*core.Program, error), o *observe) (*cluster, error) {
	topo, err := topology.TwoClusters(2*pesPerNode, wan)
	if err != nil {
		return nil, err
	}
	nodeOf := func(pe int) int { return pe / pesPerNode }
	route := func(pe int32) int { return nodeOf(int(pe)) }

	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var addrs [2]string
	for node := range c.stacks {
		s, err := vmi.NewChainBuilder(node, map[int]string{node: "127.0.0.1:0"}, route).
			Reliable(vmi.ReliableConfig{}).
			Metrics(o.registry()).
			Build()
		if err != nil {
			return nil, fmt.Errorf("node %d stack: %w", node, err)
		}
		c.stacks[node] = s
		if addrs[node], err = s.Listen(); err != nil {
			return nil, fmt.Errorf("node %d listen: %w", node, err)
		}
	}
	c.stacks[0].SetAddr(1, addrs[1])
	c.stacks[1].SetAddr(0, addrs[0])

	for node := range c.rts {
		prog, err := mkProg()
		if err != nil {
			return nil, err
		}
		opts := append([]core.Option{core.WithCluster(core.ClusterConfig{
			Transport: c.stacks[node], NodeOf: nodeOf, Node: node,
			PELo: node * pesPerNode, PEHi: (node + 1) * pesPerNode,
		})}, o.coreOpts()...)
		if c.rts[node], err = core.NewRuntime(topo, prog, opts...); err != nil {
			return nil, fmt.Errorf("node %d runtime: %w", node, err)
		}
	}
	// One shared epoch keeps both nodes' trace clocks on one time base.
	epoch := time.Now()
	c.rts[0].SetEpoch(epoch)
	c.rts[1].SetEpoch(epoch)
	ok = true
	return c, nil
}

// run executes the program to its ExitWith on node 0 and reports the value
// and the wall time of node 0's Run, adding the transport's repair counters
// to r. The cluster is closed afterwards.
func (c *cluster) run(r *rep) (any, time.Duration, error) {
	defer c.close()
	defer c.relLayers(r)
	workerDone := make(chan error, 1)
	go func() {
		_, err := c.rts[1].Run()
		workerDone <- err
	}()
	start := time.Now()
	v, err := c.rts[0].Run()
	wall := time.Since(start)
	c.rts[1].Stop()
	werr := <-workerDone
	if err != nil {
		return nil, wall, err
	}
	if werr != nil {
		return nil, wall, fmt.Errorf("worker node: %w", werr)
	}
	return v, wall, nil
}

func (c *cluster) close() {
	for _, s := range c.stacks {
		if s != nil {
			s.Close()
		}
	}
}
