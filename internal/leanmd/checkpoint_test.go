package leanmd

import (
	"bytes"
	"math"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

func runMDEngine(t *testing.T, p *Params, procs int, lat time.Duration) (*sim.Engine, *Result) {
	t.Helper()
	prog, _, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(procs, lat)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, v.(*Result)
}

// TestLeanMDCheckpointRestart runs 3 steps, checkpoints, restarts to 8
// steps on a different PE count, and compares against an uninterrupted
// 8-step run.
func TestLeanMDCheckpointRestart(t *testing.T) {
	mk := func() *Params {
		p := DefaultParams()
		p.NX, p.NY, p.NZ = 2, 2, 2
		p.AtomsPerCell = 8
		p.Warmup = 0
		return p
	}

	// Uninterrupted reference, capturing final positions.
	ref := make(map[int][]Vec3)
	pRef := mk()
	pRef.Steps = 8
	pRef.Collect = func(cell int, pos, vel []Vec3) { ref[cell] = pos }
	runMDEngine(t, pRef, 4, 2*time.Millisecond)

	// Interrupted run: 3 steps, checkpoint, continue to 8 on 2 PEs.
	p1 := mk()
	p1.Steps = 3
	e1, _ := runMDEngine(t, p1, 4, 2*time.Millisecond)
	ck, err := e1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := core.DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[int][]Vec3)
	p2 := mk()
	p2.Steps = 8
	p2.Collect = func(cell int, pos, vel []Vec3) { got[cell] = pos }
	prog2, g, err := BuildProgram(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Install(prog2); err != nil {
		t.Fatal(err)
	}
	topo2, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sim.New(topo2, prog2, sim.Options{MaxEvents: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}

	var maxErr float64
	for c := 0; c < g.NumCells; c++ {
		for i := range ref[c] {
			d := got[c][i].Sub(ref[c][i])
			if e := math.Sqrt(d.Norm2()); e > maxErr {
				maxErr = e
			}
		}
	}
	// Force-accumulation order may differ across decompositions of the
	// message schedule, so allow tiny float noise.
	if maxErr > 1e-9 {
		t.Errorf("restart diverged: max position error %v", maxErr)
	}
}

// TestLeanMDPackUnpackRoundTrip pins the migration invariant for both
// chare kinds: pack→unpack→pack is byte-identical, freshly constructed
// elements adopt the packed state, and unsafe points refuse to pack.
func TestLeanMDPackUnpackRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.NX, p.NY, p.NZ = 2, 2, 2
	p.AtomsPerCell = 8
	p.Warmup = 0
	g, err := NewGeometry(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := newCell(p, g, 3)
	c.gate.JumpTo(2)
	data, err := core.PUPPack(c)
	if err != nil {
		t.Fatal(err)
	}
	rc := newCell(p, g, 3)
	// Perturb so the test proves the packed state wins over InitAtoms.
	rc.pos[0].X += 1
	if err := core.PUPUnpack(rc, data); err != nil {
		t.Fatal(err)
	}
	if rc.gate.Step() != 2 || len(rc.pos) != 8 {
		t.Errorf("restored cell state: step=%d atoms=%d", rc.gate.Step(), len(rc.pos))
	}
	for i := range c.pos {
		if rc.pos[i] != c.pos[i] {
			t.Fatal("positions corrupted")
		}
	}
	data2, err := core.PUPPack(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("cell pack→unpack→pack not byte-identical")
	}

	ff := p.Field()
	o := newPair(p, g, ff, p.Charges(), 5)
	o.gate.JumpTo(4)
	pd, err := core.PUPPack(o)
	if err != nil {
		t.Fatal(err)
	}
	po := newPair(p, g, ff, p.Charges(), 5)
	if err := core.PUPUnpack(po, pd); err != nil {
		t.Fatal(err)
	}
	if po.gate.Step() != 4 {
		t.Error("pair step lost")
	}

	// A pair holding in-flight coordinates refuses to pack.
	o2 := newPair(p, g, ff, p.Charges(), 6)
	o2.posA = []Vec3{{}}
	if _, err := core.PUPPack(o2); err == nil {
		t.Error("pair with in-flight coordinates packed")
	}
	if err := core.PUPUnpack(newCell(p, g, 1), []byte("junk")); err == nil {
		t.Error("junk cell restored")
	}
	if err := core.PUPUnpack(newPair(p, g, ff, p.Charges(), 1), []byte("junk")); err == nil {
		t.Error("junk pair restored")
	}

	// A cell from a program with a different atom count refuses the state.
	pOther := DefaultParams()
	pOther.NX, pOther.NY, pOther.NZ = 2, 2, 2
	pOther.AtomsPerCell = 27
	pOther.Warmup = 0
	if err := core.PUPUnpack(newCell(pOther, g, 3), data); err == nil {
		t.Error("atom-count mismatch accepted")
	}
}
