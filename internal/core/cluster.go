package core

import (
	"fmt"
	"sync"
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// ClusterSpec describes an N-node cluster for StartCluster. Node n hosts
// the contiguous PEs [n·k, (n+1)·k) of Topo, k = Topo.NumPE()/Nodes.
type ClusterSpec struct {
	Topo  *topology.Topology
	Nodes int

	// Addrs lists one listen address per node. Nil puts every node on
	// 127.0.0.1:0.
	Addrs []string
	// Local lists the nodes this process hosts; nil hosts them all. A
	// multi-process deployment hosts one node per process, and its peers
	// must be reachable at their Addrs.
	Local []int

	// Program builds node n's program.
	Program func(node int) (*Program, error)
	// Builder, if non-nil, adds to node n's transport stack: its metrics
	// registry, Reliable tuning, fault devices. The launcher owns the
	// stack's control-frame handler.
	Builder func(node int, b *vmi.ChainBuilder)
	// Options, if non-nil, returns node n's runtime options beyond the
	// cluster placement and the membership manager.
	Options func(node int) []Option

	// Membership, if non-nil, gives every node a membership manager and
	// fills in node n's template (Logf, Interval, OnChange). The launcher
	// sets the rest: node 0 coordinates, and
	// every node but the Joiners is a founding Active member.
	Membership func(node int, mc *MembershipConfig)
	Joiners    map[int]bool

	// OnControl receives the control frames the launcher does not
	// dispatch itself: ControlShutdown stops the node's runtime and
	// ControlMembership goes to its manager.
	OnControl func(f *vmi.Frame)
}

// NodeOf maps a PE to the node hosting it.
func (s *ClusterSpec) NodeOf(pe int) int { return pe / s.perNode() }

// PEs returns the PE range [lo, hi) node hosts.
func (s *ClusterSpec) PEs(node int) (lo, hi int) {
	k := s.perNode()
	return node * k, (node + 1) * k
}

func (s *ClusterSpec) perNode() int { return s.Topo.NumPE() / s.Nodes }

func (s *ClusterSpec) validate() error {
	switch {
	case s.Topo == nil || s.Program == nil:
		return fmt.Errorf("core: cluster needs a topology and a program")
	case s.Nodes < 1 || s.Topo.NumPE()%s.Nodes != 0:
		return fmt.Errorf("core: %d PEs do not divide evenly over %d nodes", s.Topo.NumPE(), s.Nodes)
	case s.Addrs != nil && len(s.Addrs) != s.Nodes:
		return fmt.Errorf("core: %d addresses for %d nodes", len(s.Addrs), s.Nodes)
	case len(s.Joiners) > 0 && s.Membership == nil:
		return fmt.Errorf("core: joiners need membership")
	case s.Joiners[0]:
		return fmt.Errorf("core: node 0 coordinates and cannot join")
	}
	for _, n := range s.Local {
		if n < 0 || n >= s.Nodes {
			return fmt.Errorf("core: local node %d out of range for %d nodes", n, s.Nodes)
		}
	}
	return nil
}

// Cluster is a started cluster: every local node's stack is listening,
// its runtime is built and its peers' addresses are known.
type Cluster struct {
	// Nodes holds one entry per node, nil for nodes hosted elsewhere.
	Nodes     []*ClusterNode
	local     []int
	spec      ClusterSpec
	closeOnce sync.Once
}

// ClusterNode is one local node; Membership is nil unless the spec asks
// for managers.
type ClusterNode struct {
	Stack      *vmi.Stack
	Membership *Membership
	Runtime    *Runtime
}

// StartCluster assembles the cluster spec describes. Every local node
// is put together in one order:
//
//  1. its transport stack;
//  2. its membership manager, if the spec asks for one;
//  3. its runtime, which binds the stack;
//
// then the in-process nodes share one epoch, every local node listens,
// and the in-process nodes learn each other's bound addresses. A node
// listens only once its runtime is bound to its stack and its clock is
// set. A frame accepted earlier would be acknowledged by the reliability
// layer and then dropped, so its sender would wait for it forever. And a
// peer that is already running may deliver a frame the moment the node
// listens, which reads the runtime clock. On failure everything built so
// far is closed.
func StartCluster(spec ClusterSpec) (*Cluster, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Nodes: make([]*ClusterNode, spec.Nodes), local: spec.Local, spec: spec}
	if c.local == nil {
		for n := 0; n < spec.Nodes; n++ {
			c.local = append(c.local, n)
		}
	}
	for _, n := range c.local {
		if err := c.build(n); err != nil {
			c.Close()
			return nil, fmt.Errorf("core: cluster node %d: %w", n, err)
		}
	}
	// One shared epoch, set before any node listens: each node's element
	// construction would otherwise skew its trace clock behind the first
	// node's, corrupting cross-node flight times in merged traces.
	if len(c.local) > 1 {
		epoch := time.Now()
		for _, n := range c.local {
			c.Nodes[n].Runtime.SetEpoch(epoch)
		}
	}
	bound := make([]string, spec.Nodes)
	for _, n := range c.local {
		a, err := c.Nodes[n].Stack.Listen()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: cluster node %d: %w", n, err)
		}
		bound[n] = a
	}
	for _, n := range c.local {
		for _, m := range c.local {
			if m != n {
				c.Nodes[n].Stack.SetAddr(m, bound[m])
			}
		}
	}
	return c, nil
}

// build puts node n together: stack, membership manager, runtime.
func (c *Cluster) build(n int) error {
	s := &c.spec
	nd := &ClusterNode{}
	c.Nodes[n] = nd

	addrs := map[int]string{n: "127.0.0.1:0"}
	for i, a := range s.Addrs {
		addrs[i] = a
	}
	b := vmi.NewChainBuilder(n, addrs, func(pe int32) int { return s.NodeOf(int(pe)) })
	if s.Builder != nil {
		s.Builder(n, b)
	}
	// The handler is installed before the stack listens, and nd is
	// complete by then.
	b.OnControl(func(f *vmi.Frame) {
		switch {
		case f.Dst == vmi.ControlShutdown:
			nd.Runtime.Stop()
		case f.Dst == vmi.ControlMembership:
			if nd.Membership != nil {
				nd.Membership.HandleControl(f)
			}
		case s.OnControl != nil:
			s.OnControl(f)
		}
	})
	var err error
	if nd.Stack, err = b.Build(); err != nil {
		return err
	}

	if s.Membership != nil {
		mc := MembershipConfig{Node: n, Coordinator: 0, Stack: nd.Stack, NodeOf: s.NodeOf, NumPE: s.Topo.NumPE()}
		for i := 0; i < s.Nodes; i++ {
			if !s.Joiners[i] {
				mb := Member{Node: int32(i), State: MemberActive}
				if s.Addrs != nil {
					mb.Addr = s.Addrs[i]
				}
				mc.Initial = append(mc.Initial, mb)
			}
		}
		s.Membership(n, &mc)
		if nd.Membership, err = NewMembership(mc); err != nil {
			return err
		}
		nd.Membership.Instrument(nd.Stack.Metrics())
	}

	prog, err := s.Program(n)
	if err != nil {
		return err
	}
	lo, hi := s.PEs(n)
	opts := []Option{
		WithCluster(ClusterConfig{Transport: nd.Stack, NodeOf: s.NodeOf, Node: n, PELo: lo, PEHi: hi}),
		WithMembership(nd.Membership),
	}
	if s.Options != nil {
		opts = append(opts, s.Options(n)...)
	}
	nd.Runtime, err = NewRuntime(s.Topo, prog, opts...)
	return err
}

// NodeError is a local worker node's failed run, as Cluster.Run reports
// it.
type NodeError struct {
	Node int
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("node %d: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// Run runs the first local node (node 0, when this process hosts it) and
// every other local node in a goroutine, and stops the others once the
// first returns. It returns the first node's result and error; when that
// node succeeded but a worker failed, the lowest such worker's failure
// comes back as a *NodeError. Nodes hosted elsewhere are the caller's to
// stop. Run may be called once.
func (c *Cluster) Run() (any, error) {
	workers := c.local[1:]
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, n := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Nodes[n].Runtime.Run(); err != nil {
				errs[i] = &NodeError{Node: n, Err: err}
			}
		}()
	}
	v, err := c.Nodes[c.local[0]].Runtime.Run()
	for _, n := range workers {
		c.Nodes[n].Runtime.Stop()
	}
	wg.Wait()
	for _, werr := range errs {
		if err == nil {
			err = werr
		}
	}
	return v, err
}

// Close tears down every local node: managers, then runtimes, then
// stacks. It is idempotent, and safe on a partly built cluster.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, nd := range c.Nodes {
			if nd != nil && nd.Membership != nil {
				nd.Membership.Close()
			}
		}
		for _, nd := range c.Nodes {
			if nd != nil && nd.Runtime != nil {
				nd.Runtime.Stop()
			}
		}
		for _, nd := range c.Nodes {
			if nd != nil && nd.Stack != nil {
				nd.Stack.Close()
			}
		}
	})
}
