package leanmd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

func TestGeometryPaperCounts(t *testing.T) {
	g, err := NewGeometry(6, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells != 216 {
		t.Fatalf("cells = %d, want 216", g.NumCells)
	}
	// The paper's benchmark: 216 cells and 3,024 cell pairs
	// (2,808 neighbor pairs + 216 self-pairs).
	if g.NumPairs() != 3024 {
		t.Fatalf("pairs = %d, want 3024", g.NumPairs())
	}
	selfs := 0
	for _, p := range g.Pairs {
		if p.Self() {
			selfs++
		}
	}
	if selfs != 216 {
		t.Fatalf("self-pairs = %d, want 216", selfs)
	}
	// Every cell participates in exactly 27 pair objects (26 neighbors +
	// self) and multicasts to all of them.
	for c := 0; c < g.NumCells; c++ {
		if got := len(g.PairsOf[c]); got != 27 {
			t.Fatalf("cell %d participates in %d pairs, want 27", c, got)
		}
	}
}

func TestGeometrySmallLatticeDedup(t *testing.T) {
	// 2×2×2 periodic lattice: wrap-around aliases many offsets; pairs
	// must still be unique.
	g, err := NewGeometry(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[CellPair]bool)
	for _, p := range g.Pairs {
		if p.A > p.B {
			t.Fatalf("unnormalized pair %+v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %+v", p)
		}
		seen[p] = true
	}
	// All 8 cells are mutual neighbors under wrap: C(8,2)+8 = 36 pairs.
	if g.NumPairs() != 36 {
		t.Fatalf("2x2x2 pairs = %d, want 36", g.NumPairs())
	}
	if _, err := NewGeometry(0, 1, 1); err == nil {
		t.Error("degenerate lattice accepted")
	}
}

func TestForceAntisymmetryProperty(t *testing.T) {
	ff := &ForceField{Epsilon: 0.1, Sigma: 0.2, Coulomb: 1, Cutoff: 1, Box: Vec3{4, 4, 4}}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ri := Vec3{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		rj := Vec3{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		qi, qj := rng.Float64()-0.5, rng.Float64()-0.5
		fij, uij := ff.PairInteraction(ri, rj, qi, qj)
		fji, uji := ff.PairInteraction(rj, ri, qj, qi)
		if uij != uji {
			return false
		}
		sum := fij.Add(fji)
		return math.Abs(sum.X) < 1e-12 && math.Abs(sum.Y) < 1e-12 && math.Abs(sum.Z) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestForceCutoff(t *testing.T) {
	ff := &ForceField{Epsilon: 0.1, Sigma: 0.2, Coulomb: 1, Cutoff: 1, Box: Vec3{10, 10, 10}}
	f, u := ff.PairInteraction(Vec3{0, 0, 0}, Vec3{2, 0, 0}, 1, 1)
	if f != (Vec3{}) || u != 0 {
		t.Errorf("interaction beyond cutoff: f=%v u=%v", f, u)
	}
	// Minimum image: 9.5 apart in a box of 10 is only 0.5 away.
	f, _ = ff.PairInteraction(Vec3{0.25, 0, 0}, Vec3{9.75, 0, 0}, 1, 1)
	if f == (Vec3{}) {
		t.Error("minimum image not applied")
	}
	if f.X <= 0 {
		t.Errorf("repulsive-at-contact force points the wrong way: %v", f)
	}
}

func TestDecompositionMatchesDirect(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 3, 3, 3
	p.AtomsPerCell = 8
	g, err := NewGeometry(p.NX, p.NY, p.NZ)
	if err != nil {
		t.Fatal(err)
	}
	ff := p.Field()
	s := BuildSystem(p, g)

	fDirect, uDirect := DirectForces(ff, s)
	fDecomp, uDecomp := DecomposedForces(p, g, ff, s)

	if rel := math.Abs(uDirect-uDecomp) / math.Abs(uDirect); rel > 1e-10 {
		t.Errorf("potential energy mismatch: direct=%v decomposed=%v", uDirect, uDecomp)
	}
	var maxErr float64
	for i := range fDirect {
		d := fDirect[i].Sub(fDecomp[i])
		if e := math.Sqrt(d.Norm2()); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-9 {
		t.Errorf("max force error %v between direct and decomposed", maxErr)
	}
	// Newton's third law: forces sum to ~zero.
	var tot Vec3
	for _, f := range fDecomp {
		tot = tot.Add(f)
	}
	if math.Sqrt(tot.Norm2()) > 1e-9 {
		t.Errorf("net force %v, want ~0", tot)
	}
}

func runLeanMDSim(t *testing.T, p *Params, procs int, lat time.Duration) *Result {
	t.Helper()
	prog, _, err := BuildProgram(p)
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
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Result)
}

func TestEnergyConservation(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 3, 3, 3
	p.AtomsPerCell = 8
	p.Steps = 40
	p.Warmup = 2
	res := runLeanMDSim(t, p, 4, time.Millisecond)
	if res.EWarm == 0 || res.EFinal == 0 {
		t.Fatalf("energies not recorded: %+v", res)
	}
	if d := res.Drift(); d > 0.05 {
		t.Errorf("energy drift %.4f over %d steps, want < 0.05 (EWarm=%v EFinal=%v)",
			d, p.Steps, res.EWarm, res.EFinal)
	}
}

func TestMomentumConservation(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 2, 2, 2
	p.AtomsPerCell = 8
	p.Steps = 20
	p.Warmup = 1
	var total Vec3
	var atoms int
	p.Collect = func(cell int, pos, vel []Vec3) {
		for _, v := range vel {
			total = total.Add(v)
		}
		atoms += len(vel)
	}
	runLeanMDSim(t, p, 1, 0)
	if atoms != 8*8 {
		t.Fatalf("collected %d atoms", atoms)
	}
	if m := math.Sqrt(total.Norm2()); m > 1e-9 {
		t.Errorf("net momentum %v after %d steps, want ~0", m, p.Steps)
	}
}

// TestAppMatchesSequentialIntegration replays the app's exact integration
// scheme sequentially and compares final positions.
func TestAppMatchesSequentialIntegration(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 2, 2, 2
	p.AtomsPerCell = 8
	p.Steps = 3
	p.Warmup = 0

	got := make(map[int][]Vec3)
	p.Collect = func(cell int, pos, vel []Vec3) { got[cell] = pos }
	runLeanMDSim(t, p, 4, 2*time.Millisecond)

	// Sequential replay: leapfrog with a backward seeding half-step.
	g, err := NewGeometry(p.NX, p.NY, p.NZ)
	if err != nil {
		t.Fatal(err)
	}
	ff := p.Field()
	s := BuildSystem(p, g)
	n := p.AtomsPerCell
	vel := make([]Vec3, 0, g.NumCells*n)
	for c := 0; c < g.NumCells; c++ {
		_, v := p.InitAtoms(c, g)
		vel = append(vel, v...)
	}
	vHalf := make([]Vec3, len(vel))
	for step := 0; step < p.Steps; step++ {
		f, _ := DecomposedForces(p, g, ff, s)
		if step == 0 {
			for i := range vHalf {
				vHalf[i] = vel[i].Sub(f[i].Scale(p.Dt / 2))
			}
		}
		for i := range s.Pos {
			vHalf[i] = vHalf[i].Add(f[i].Scale(p.Dt))
			s.Pos[i] = s.Pos[i].Add(vHalf[i].Scale(p.Dt))
		}
	}

	var maxErr float64
	for c := 0; c < g.NumCells; c++ {
		for i, pos := range got[c] {
			d := pos.Sub(s.Pos[c*n+i])
			if e := math.Sqrt(d.Norm2()); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 1e-9 {
		t.Errorf("max position error vs sequential integration: %v", maxErr)
	}
}

// TestLatencyImpactShape reproduces Figure 4's qualitative behavior: step
// time flat while latency is small relative to per-step compute, rising
// once it is not.
func TestLatencyImpactShape(t *testing.T) {
	base := DefaultParams()
	base.NX, base.NY, base.NZ = 4, 4, 4
	base.AtomsPerCell = 6
	base.Steps = 8
	base.Warmup = 3
	base.Model = DefaultModel()

	perStep := func(lat time.Duration) time.Duration {
		p := *base
		return runLeanMDSim(t, &p, 8, lat).PerStep
	}
	flat0 := perStep(time.Millisecond)
	flat1 := perStep(8 * time.Millisecond)
	steep := perStep(256 * time.Millisecond)
	if float64(flat1) > 1.3*float64(flat0) {
		t.Errorf("8ms latency not masked: %v vs %v", flat1, flat0)
	}
	// At 256ms the step is latency-bound: per-step ≈ the coordinate/force
	// round trip (2×256ms), still overlapped with — not added to — the
	// local compute (the paper's max(W, RTT) behavior).
	if steep < 500*time.Millisecond {
		t.Errorf("per-step %v below the 512ms round trip", steep)
	}
	if steep > 2*flat1+100*time.Millisecond {
		t.Errorf("per-step %v looks additive (compute + RTT), not overlapped", steep)
	}
}

func TestRealtimeLeanMD(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 2, 2, 2
	p.AtomsPerCell = 8
	p.Steps = 6
	p.Warmup = 2
	prog, _, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(4, 2*time.Millisecond)
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
	if res.PerStep <= 0 || res.Total <= 0 {
		t.Errorf("timing missing: %+v", res)
	}
	if d := res.Drift(); d > 0.05 {
		t.Errorf("energy drift %v on real-time runtime", d)
	}
}

func TestCostModelScaling(t *testing.T) {
	m := DefaultModel()
	// Model atoms dominate regardless of actual counts.
	c1 := m.PairCost(8, 8, false)
	c2 := m.PairCost(100, 100, false)
	if c1 != c2 {
		t.Errorf("model-scaled costs differ: %v vs %v", c1, c2)
	}
	// Paper calibration: 3024 pairs × pair cost ≈ 8s.
	total := time.Duration(3024) * m.PairCost(200, 200, false)
	if total < 6*time.Second || total > 10*time.Second {
		t.Errorf("single-PE step cost %v, want ≈8s", total)
	}
	if m.PairCost(4, 4, true) >= m.PairCost(4, 4, false) {
		t.Error("self-pair should cost less than a full pair")
	}
	actual := &CostModel{PerInteractionNS: 10, ModelAtomsPerCell: 0}
	if actual.PairCost(2, 2, false) != time.Duration(4*10)*time.Nanosecond {
		t.Errorf("actual-count cost wrong: %v", actual.PairCost(2, 2, false))
	}
	if m.IntegrateCost(5) <= 0 {
		t.Error("non-positive integrate cost")
	}
}

func TestParamsValidation(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.NX = 0 },
		func(p *Params) { p.AtomsPerCell = 0 },
		func(p *Params) { p.Steps = 0 },
		func(p *Params) { p.Warmup = p.Steps },
		func(p *Params) { p.Dt = 0 },
	}
	for i, mod := range cases {
		p := DefaultParams()
		mod(p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// TestCoordForceMsgWire: LeanMD's two messages cross the wire as their
// registered PUP traversals and come back as values of their own types.
func TestCoordForceMsgWire(t *testing.T) {
	vecs := []Vec3{{1, -2, 3.5}, {math.Inf(1), 0, -0.25}}
	for _, in := range []any{
		coordMsg{From: 7, Step: 12, Pos: vecs},
		coordMsg{From: 0, Step: 0},
		forceMsg{Step: 12, F: vecs, U: -1.75},
	} {
		enc, err := core.AppendMessage(nil, &core.Message{Kind: core.KindApp, Data: in})
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Data, in) {
			t.Errorf("%#v came back as %#v", in, out.Data)
		}
	}
}
