package appflags

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func TestClusterResolve(t *testing.T) {
	c := Cluster{Node: 1, Addrs: "a:1,b:2", Topology: Topology{Procs: 4, Latency: time.Millisecond}}
	lay, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if lay.Nodes != 2 || lay.Topo.Cluster(1) != 0 || lay.Topo.Cluster(2) != 1 {
		t.Errorf("layout %+v", lay)
	}
	if lay.Addrs[1] != "b:2" || len(lay.Local) != 1 || lay.Local[0] != 1 {
		t.Errorf("addrs %v, local %v", lay.Addrs, lay.Local)
	}
	if lay.NodeOf(3) != 1 {
		t.Error("PE mapping wrong")
	}

	// One address is a one-process cluster: node 0 hosts every PE, and
	// the two sites still meet across the injected latency.
	solo := Cluster{Addrs: "a:1", Topology: Topology{Procs: 4, Latency: time.Millisecond}}
	lay, err = solo.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if lay.Nodes != 1 || lay.Topo.Cluster(2) != 1 || lay.Topo.NumPE() != 4 {
		t.Errorf("one-address layout %+v", lay)
	}
	if lay.NodeOf(3) != 0 {
		t.Error("one-address PE mapping wrong")
	}
	if !lay.Topo.CrossesWAN(0, 3) || lay.Topo.Latency(0, 3) != time.Millisecond {
		t.Error("one-address topology lost its wide-area link")
	}

	bad := []Cluster{
		{Addrs: "", Topology: Topology{Procs: 4}},                                // no addresses
		{Addrs: "a:1", Topology: Topology{Procs: 4}, Node: 1},                    // node out of range
		{Addrs: "a:1", Topology: Topology{Procs: 1}},                             // one PE cannot span two sites
		{Addrs: "a:1,b:2", Topology: Topology{Procs: 3}},                         // indivisible
		{Addrs: "a:1,b:2", Topology: Topology{Procs: 4}, Node: 2},                // node out of range
		{Addrs: "a:1,b:2", Topology: Topology{Procs: 4, Split: 9}},               // split out of range
		{Addrs: "a:1", Topology: Topology{Procs: 4, Latency: -time.Millisecond}}, // negative latency
	}
	for i, c := range bad {
		if _, err := c.Resolve(); err == nil {
			t.Errorf("case %d: bad cluster %+v resolved", i, c)
		}
	}
}

func TestJoinerSet(t *testing.T) {
	c := Cluster{Joiners: "1, 2"}
	j, err := c.JoinerSet(3)
	if err != nil || !j[1] || !j[2] || j[0] {
		t.Fatalf("joiners %v, err %v", j, err)
	}
	for _, bad := range []string{"0", "3", "x"} {
		c.Joiners = bad
		if _, err := c.JoinerSet(3); err == nil {
			t.Errorf("joiners %q accepted", bad)
		}
	}
}

func TestFarmParamsServe(t *testing.T) {
	f := Farm{Tasks: 500, Shards: 0, Batch: 8, Prefetch: 2, Skew: 1, Serve: true}
	p := f.Params(4, nil, nil)
	if !p.Serve || p.Tasks != 0 {
		t.Errorf("serve params %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("serve params invalid: %v", err)
	}
	f.Serve = false
	if p := f.Params(4, nil, nil); p.Serve || p.Tasks != 500 {
		t.Errorf("batch params %+v", p)
	}
}

func TestStencilParams(t *testing.T) {
	st := Stencil{Objects: 5, Width: 64}
	if _, err := st.Params(Sim{Steps: 4}); err == nil || !strings.Contains(err.Error(), "perfect square") {
		t.Errorf("objects=5 err %v", err)
	}
	st.Objects = 16
	p, err := st.Params(Sim{Steps: 4, Warmup: 1})
	if err != nil || p.VX != 4 || p.Steps != 4 {
		t.Errorf("params %+v err %v", p, err)
	}
	st.LB = "bogus"
	if _, err := st.Params(Sim{Steps: 4}); err == nil {
		t.Error("bogus -lb accepted")
	}
	st.LB, st.LBPeriod = "greedy", -1
	if _, err := st.Params(Sim{Steps: 4}); err == nil || !strings.Contains(err.Error(), "-lb-period") {
		t.Errorf("negative -lb-period: err %v", err)
	}
}

// TestRegisterNamesStable pins the flag-name contract: the CI scripts
// and docs address these exact names.
func TestRegisterNamesStable(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var c Cluster
	var s Sim
	var st Stencil
	var l LeanMD
	var f Farm
	var o Obs
	c.Register(fs)
	s.Register(fs)
	st.Register(fs)
	l.Register(fs)
	f.Register(fs)
	o.Register(fs)
	for _, name := range []string{
		"node", "addrs", "procs", "latency", "split", "membership", "joiners",
		"steps", "warmup", "objects", "width", "lb", "lb-period", "cells", "atoms",
		"tasks", "shards", "batch", "steal", "prefetch", "spin", "skew", "serve",
		"metrics", "metrics-out", "trace-out", "trace-cap",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s missing", name)
		}
	}
}
