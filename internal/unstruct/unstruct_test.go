package unstruct

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

func TestMeshConstruction(t *testing.T) {
	m, err := NewMesh(100, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 100 {
		t.Fatalf("vertices = %d", m.NumVertices())
	}
	for v, adj := range m.Adj {
		if len(adj) < 4 {
			t.Fatalf("vertex %d has degree %d < k", v, len(adj))
		}
		for i, u := range adj {
			if int(u) == v {
				t.Fatalf("self-loop at %d", v)
			}
			if i > 0 && adj[i-1] >= u {
				t.Fatalf("adjacency of %d not sorted/unique", v)
			}
			// Symmetry.
			found := false
			for _, w := range m.Adj[u] {
				if int(w) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", v, u)
			}
		}
	}
	if _, err := NewMesh(1, 1, 0); err == nil {
		t.Error("degenerate mesh accepted")
	}
	if _, err := NewMesh(10, 10, 0); err == nil {
		t.Error("k >= n accepted")
	}
}

func TestMeshDeterministic(t *testing.T) {
	a, err := NewMesh(60, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMesh(60, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Adj {
		if a.X[v] != b.X[v] || len(a.Adj[v]) != len(b.Adj[v]) {
			t.Fatal("mesh not deterministic")
		}
	}
}

// Property: every partition is an exact cover, and halo lists agree
// between sender and receiver.
func TestPartitionInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		n := 40 + int(uint64(seed)%60)
		m, err := NewMesh(n, 3, seed)
		if err != nil {
			return false
		}
		chunks := 2 + int(uint64(seed)%6)
		p, err := NewPartition(m, chunks)
		if err != nil {
			return false
		}
		owned := 0
		for c := 0; c < chunks; c++ {
			owned += len(p.Verts[c])
			for _, v := range p.Verts[c] {
				if p.ChunkOf[v] != int32(c) {
					return false
				}
			}
			// Sender and receiver views of each cut must be identical.
			for dst, list := range p.SendTo[c] {
				peer := p.NeedFrom[dst][int32(c)]
				if len(peer) != len(list) {
					return false
				}
				for i := range list {
					if list[i] != peer[i] {
						return false
					}
				}
			}
		}
		return owned == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func runUnstructSim(t *testing.T, p *Params, procs int, lat time.Duration) *Result {
	t.Helper()
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var topo *topology.Topology
	if procs == 1 {
		topo, err = topology.Single(1)
	} else {
		topo, err = topology.TwoClusters(procs, lat)
	}
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Result)
}

func TestMatchesSequentialBitwise(t *testing.T) {
	p := &Params{Vertices: 300, Degree: 4, Seed: 3, Chunks: 12, Steps: 9}
	got := make([]float64, p.Vertices)
	var mu sync.Mutex
	p.Collect = func(chunk int, verts []int32, vals []float64) {
		mu.Lock()
		defer mu.Unlock()
		for i, v := range verts {
			got[v] = vals[i]
		}
	}
	res := runUnstructSim(t, p, 4, 3*time.Millisecond)
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d = %v, want %v (bitwise)", v, got[v], want[v])
		}
	}
	var sum float64
	for _, x := range want {
		sum += x
	}
	if rel := math.Abs(res.Checksum-sum) / math.Abs(sum); rel > 1e-12 {
		t.Errorf("checksum rel err %v", rel)
	}
	if res.CutEdges == 0 {
		t.Error("partition produced no cut edges")
	}
}

// TestIrregularLatencyMasking extends the paper's generality claim: the
// same runtime masks latency under an irregular decomposition too.
func TestIrregularLatencyMasking(t *testing.T) {
	mk := func(chunks int, lat time.Duration) time.Duration {
		p := &Params{
			Vertices: 2000, Degree: 5, Seed: 11,
			Chunks: chunks, Steps: 20, Warmup: 6,
			Model: DefaultModel(),
		}
		return runUnstructSim(t, p, 4, lat).PerStep
	}
	// More chunks per PE extends the flat region, as with the stencil.
	const lat = 500 * time.Microsecond
	low := mk(4, lat)   // one chunk per PE: no overlap material
	high := mk(32, lat) // eight chunks per PE
	if high >= low {
		t.Errorf("virtualization did not help the irregular mesh: %v vs %v", high, low)
	}
	// And per-step time is monotone in latency.
	if a, b := mk(32, 0), mk(32, 8*time.Millisecond); b < a {
		t.Errorf("per-step decreased with latency: %v -> %v", a, b)
	}
}

func TestRealtimeIrregular(t *testing.T) {
	p := &Params{Vertices: 200, Degree: 3, Seed: 5, Chunks: 8, Steps: 6}
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := v.(*Result)
	want, err := RunSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range want {
		sum += x
	}
	if rel := math.Abs(res.Checksum-sum) / math.Abs(sum); rel > 1e-12 {
		t.Errorf("realtime checksum rel err %v", rel)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []*Params{
		{Vertices: 1, Degree: 1, Chunks: 1, Steps: 1},
		{Vertices: 10, Degree: 0, Chunks: 1, Steps: 1},
		{Vertices: 10, Degree: 2, Chunks: 0, Steps: 1},
		{Vertices: 10, Degree: 2, Chunks: 11, Steps: 1},
		{Vertices: 10, Degree: 2, Chunks: 2, Steps: 0},
		{Vertices: 10, Degree: 2, Chunks: 2, Steps: 2, Warmup: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestSweepCost(t *testing.T) {
	m := DefaultModel()
	if m.SweepCost(10, 40) <= 0 {
		t.Error("non-positive sweep cost")
	}
	if m.SweepCost(10, 40) <= m.SweepCost(10, 4) {
		t.Error("cost not increasing in edges")
	}
}

// TestHaloMsgWire: a halo crosses the wire as its registered PUP traversal
// and comes back as a haloMsg value.
func TestHaloMsgWire(t *testing.T) {
	in := haloMsg{From: 5, Step: 9, Vals: []float64{1.5, -2, math.MaxFloat64}}
	enc, err := core.AppendMessage(nil, &core.Message{Kind: core.KindApp, Data: in})
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Data, in) {
		t.Errorf("halo came back as %#v", out.Data)
	}
}
