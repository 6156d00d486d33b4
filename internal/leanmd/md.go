package leanmd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"gridmdo/internal/core"
)

// Arrays of the LeanMD program.
const (
	ArrayCells core.ArrayID = 0
	ArrayPairs core.ArrayID = 1
)

// Entry methods.
const (
	EntryKick   core.EntryID = 0 // cells: begin time-stepping
	EntryCoords core.EntryID = 1 // pairs: a cell's coordinates
	EntryForces core.EntryID = 2 // cells: a pair's force contribution
)

// Params configures one LeanMD run.
type Params struct {
	NX, NY, NZ   int // cell lattice (paper: 6×6×6 = 216 cells)
	AtomsPerCell int // atoms actually simulated per cell

	Steps  int
	Warmup int // steps before steady-state timing begins (< Steps)

	Dt       float64 // integration step
	CellSize float64 // cell edge length; also the interaction cutoff
	Epsilon  float64 // LJ well depth
	Sigma    float64 // LJ length scale; 0 derives from lattice spacing
	Charge   float64 // alternating ±Charge per atom
	VelScale float64 // initial velocity scale
	Seed     int64

	// Model, if non-nil, charges modeled execution time (virtual-time
	// executor); see CostModel for the paper-scale substitution.
	Model *CostModel

	// Collect, if non-nil, receives each cell's final state (verification
	// hook; must be safe for concurrent use on the real-time runtime).
	Collect func(cell int, pos, vel []Vec3)
}

// DefaultParams returns the paper's benchmark geometry with
// reduced-unit physics that is stable under the default Dt.
func DefaultParams() *Params {
	return &Params{
		NX: 6, NY: 6, NZ: 6,
		AtomsPerCell: 32,
		Steps:        12,
		Warmup:       4,
		Dt:           0.002,
		CellSize:     1.0,
		Epsilon:      0.05,
		Charge:       0.05,
		VelScale:     0.08,
		Seed:         1,
	}
}

// Validate checks parameter consistency.
func (p *Params) Validate() error {
	if p.NX <= 0 || p.NY <= 0 || p.NZ <= 0 {
		return fmt.Errorf("leanmd: bad lattice %dx%dx%d", p.NX, p.NY, p.NZ)
	}
	if p.AtomsPerCell <= 0 {
		return fmt.Errorf("leanmd: %d atoms per cell", p.AtomsPerCell)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("leanmd: %d steps", p.Steps)
	}
	if p.Warmup < 0 || p.Warmup >= p.Steps {
		return fmt.Errorf("leanmd: warmup %d must be in [0, steps=%d)", p.Warmup, p.Steps)
	}
	if p.Dt <= 0 || p.CellSize <= 0 {
		return fmt.Errorf("leanmd: non-positive dt or cell size")
	}
	return nil
}

// Field builds the force field implied by the parameters.
func (p *Params) Field() *ForceField {
	sigma := p.Sigma
	if sigma == 0 {
		k := sublatticeK(p.AtomsPerCell)
		sigma = 0.5 * p.CellSize / float64(k)
	}
	return &ForceField{
		Epsilon: p.Epsilon,
		Sigma:   sigma,
		Coulomb: 1,
		Cutoff:  p.CellSize,
		Box: Vec3{
			X: float64(p.NX) * p.CellSize,
			Y: float64(p.NY) * p.CellSize,
			Z: float64(p.NZ) * p.CellSize,
		},
	}
}

func sublatticeK(n int) int {
	k := 1
	for k*k*k < n {
		k++
	}
	return k
}

// Charges builds the deterministic alternating charge pattern shared by
// every cell (so pair objects derive it locally instead of shipping it).
func (p *Params) Charges() []float64 {
	q := make([]float64, p.AtomsPerCell)
	for i := range q {
		if i%2 == 0 {
			q[i] = p.Charge
		} else {
			q[i] = -p.Charge
		}
	}
	return q
}

// InitAtoms places a cell's atoms on a jittered sub-lattice inside the
// cell and draws small velocities, deterministically from (Seed, cell):
// each cell draws from its own PCG keyed by that pair, which is two words
// to seed, so cells built on several goroutines share no generator.
func (p *Params) InitAtoms(cell int, g *Geometry) (pos, vel []Vec3) {
	var src rand.PCG
	src.Seed(uint64(p.Seed), uint64(cell))
	return p.placeAtoms(&src, cell, g)
}

// placeAtoms is InitAtoms with the cell's generator given.
func (p *Params) placeAtoms(src *rand.PCG, cell int, g *Geometry) (pos, vel []Vec3) {
	rng := rand.New(src)
	x, y, z := g.coords(cell)
	origin := Vec3{float64(x) * p.CellSize, float64(y) * p.CellSize, float64(z) * p.CellSize}
	k := sublatticeK(p.AtomsPerCell)
	spacing := p.CellSize / float64(k)
	jitter := 0.05 * spacing

	pos = make([]Vec3, p.AtomsPerCell)
	vel = make([]Vec3, p.AtomsPerCell)
	var mean Vec3
	for i := 0; i < p.AtomsPerCell; i++ {
		ix, iy, iz := i%k, (i/k)%k, i/(k*k)
		pos[i] = origin.Add(Vec3{
			(float64(ix)+0.5)*spacing + jitter*(2*rng.Float64()-1),
			(float64(iy)+0.5)*spacing + jitter*(2*rng.Float64()-1),
			(float64(iz)+0.5)*spacing + jitter*(2*rng.Float64()-1),
		})
		vel[i] = Vec3{
			p.VelScale * (2*rng.Float64() - 1),
			p.VelScale * (2*rng.Float64() - 1),
			p.VelScale * (2*rng.Float64() - 1),
		}
		mean = mean.Add(vel[i])
	}
	mean = mean.Scale(1 / float64(p.AtomsPerCell))
	for i := range vel {
		vel[i] = vel[i].Sub(mean) // zero net momentum per cell
	}
	return pos, vel
}

// pupVec3s moves a []Vec3 as a count and three bit-exact floats per
// vector.
func pupVec3s(p *core.PUP, v *[]Vec3) {
	core.PUPSlice(p, v, 24, 0, func(w *Vec3, p *core.PUP) {
		p.Float64(&w.X)
		p.Float64(&w.Y)
		p.Float64(&w.Z)
	})
}

// coordMsg carries one cell's positions to a pair object.
type coordMsg struct {
	From cellID
	Step int
	Pos  []Vec3
}

// PayloadBytes implements core.Sizer.
func (c coordMsg) PayloadBytes() int { return 16 + 24*len(c.Pos) }

// PUP is the coordinate message's wire form.
func (c *coordMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &c.From)
	core.PUPVarint(p, &c.Step)
	pupVec3s(p, &c.Pos)
}

// forceMsg carries a pair's force contribution back to one cell.
type forceMsg struct {
	Step int
	F    []Vec3
	U    float64 // this cell's share of the pair potential energy
}

// PayloadBytes implements core.Sizer.
func (f forceMsg) PayloadBytes() int { return 24 + 24*len(f.F) }

// PUP is the force message's wire form.
func (f *forceMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &f.Step)
	pupVec3s(p, &f.F)
	p.Float64(&f.U)
}

// Result is the run outcome delivered through ExitWith.
type Result struct {
	EWarm    float64       // total energy at the warmup step
	EFinal   float64       // total energy at the last step
	PerStep  time.Duration // steady-state time per step
	Total    time.Duration
	Steps    int
	Warmup   int
	Cells    int
	Pairs    int
	WarmupAt time.Duration
	FinishAt time.Duration
}

// Drift reports the relative energy drift between warmup and finish.
func (r *Result) Drift() float64 {
	if r.EWarm == 0 {
		return math.Abs(r.EFinal - r.EWarm)
	}
	return math.Abs(r.EFinal-r.EWarm) / math.Abs(r.EWarm)
}

// cell is one spatial-decomposition chare.
type cell struct {
	p  *Params
	g  *Geometry
	id cellID

	pos, vHalf, vel []Vec3

	section *core.Section // this cell's pair objects
	snap    []Vec3        // the positions multicast for the gate's step

	gate    *core.StepGate
	fAcc    []Vec3
	uAcc    float64
	started bool
	done    bool
}

func newCell(p *Params, g *Geometry, id cellID) *cell {
	pos, vel := p.InitAtoms(id, g)
	c := &cell{
		p: p, g: g, id: id,
		pos: pos, vel: vel,
		vHalf: make([]Vec3, len(pos)),
		snap:  make([]Vec3, len(pos)),
		fAcc:  make([]Vec3, len(pos)),
	}
	refs := make([]core.ElemRef, 0, len(g.PairsOf[id]))
	for _, pi := range g.PairsOf[id] {
		refs = append(refs, core.ElemRef{Array: ArrayPairs, Index: pi})
	}
	c.section = core.NewSection(refs...)
	c.gate = core.NewStepGate(len(refs))
	return c
}

func (c *cell) multicastCoords(ctx *core.Ctx) {
	// Snapshot the positions: in-process delivery passes the payload by
	// reference, and this cell mutates pos on its next integration while
	// pair objects (possibly on other PEs) are still reading it. One
	// snapshot buffer is enough: the cell integrates again only once every
	// pair of its section has answered with forces, that is, once every
	// pair is done reading this step's snapshot (DESIGN.md, "App payload
	// ownership").
	copy(c.snap, c.pos)
	ctx.Multicast(c.section, EntryCoords, coordMsg{From: c.id, Step: c.gate.Step(), Pos: c.snap})
}

// Recv implements core.Chare.
func (c *cell) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case EntryKick:
		c.multicastCoords(ctx)
	case EntryForces:
		f := data.(forceMsg)
		if c.done {
			return
		}
		if _, ok := c.gate.Deliver(f.Step, data); ok {
			c.accumulate(f)
			c.tryIntegrate(ctx)
		}
	default:
		panic(fmt.Sprintf("leanmd: cell got unknown entry %d", entry))
	}
}

func (c *cell) accumulate(f forceMsg) {
	for i, fv := range f.F {
		c.fAcc[i] = c.fAcc[i].Add(fv)
	}
	c.uAcc += f.U
}

// tryIntegrate integrates once the gate's step has every pair's forces.
func (c *cell) tryIntegrate(ctx *core.Ctx) {
	if c.gate.Ready() && !c.done {
		energy := c.integrate(ctx)
		advance(c.gate)
		step := c.gate.Step()

		if step == c.p.Warmup && c.p.Warmup > 0 {
			ctx.Contribute(energy, core.OpSum)
		}
		if step == c.p.Steps {
			c.done = true
			if c.p.Collect != nil {
				c.p.Collect(c.id, append([]Vec3(nil), c.pos...), append([]Vec3(nil), c.vel...))
			}
			ctx.Contribute(energy, core.OpSum)
			return
		}
		c.multicastCoords(ctx)
	}
}

// advance moves a cell's or a pair's gate to its next step. Neither ever
// holds a message for a step ahead of its gate: a pair's forces for step
// s+1 answer coordinates the cell multicasts only after advancing to s+1,
// and a cell's coordinates for s+1 follow the forces the pair sends just
// before it advances. The cell's snapshot and the pair's force buffers
// are reused on that argument, so a message that arrives early means the
// step protocol is broken, and the buffers with it.
func advance(g *core.StepGate) {
	if pend := g.Advance(); len(pend) > 0 {
		panic(fmt.Sprintf("leanmd: %d messages arrived ahead of step %d", len(pend), g.Step()))
	}
}

// integrate performs one velocity-Verlet (leapfrog) step with the forces
// accumulated for the current step and returns the step's total energy
// share (kinetic plus this cell's half of the pair potentials).
func (c *cell) integrate(ctx *core.Ctx) float64 {
	dt := c.p.Dt
	if m := c.p.Model; m != nil {
		ctx.Charge(m.IntegrateCost(c.p.AtomsPerCell))
	}

	if !c.started {
		// Backward half-step to seed the leapfrog: v_{-1/2} = v0 − a·dt/2.
		for i := range c.vHalf {
			c.vHalf[i] = c.vel[i].Sub(c.fAcc[i].Scale(dt / 2))
		}
		c.started = true
	}

	// v_{n+1/2} = v_{n-1/2} + a_n·dt; v_n = (v_{n-1/2}+v_{n+1/2})/2.
	var ke float64
	for i := range c.pos {
		vNew := c.vHalf[i].Add(c.fAcc[i].Scale(dt))
		vAtN := c.vHalf[i].Add(vNew).Scale(0.5)
		ke += 0.5 * vAtN.Norm2()
		c.vHalf[i] = vNew
		c.vel[i] = vAtN
	}
	energy := ke + c.uAcc

	// Advance positions and reset accumulators.
	for i := range c.pos {
		c.pos[i] = c.pos[i].Add(c.vHalf[i].Scale(dt))
		c.fAcc[i] = Vec3{}
	}
	c.uAcc = 0
	return energy
}

// pairObj is one cell-pair chare.
type pairObj struct {
	p   *Params
	g   *Geometry
	ff  *ForceField
	idx int
	cp  CellPair
	q   []float64 // every cell's charges, shared by all pairs

	gate *core.StepGate
	posA []Vec3
	posB []Vec3

	// fa and fb are the forces this pair sends to cells A and B (fb is
	// unused by a self-pair), cleared and refilled every step: a cell's
	// next coordinates, and with them this pair's next step, come only
	// after the cell has added the forces in.
	fa, fb []Vec3
}

func newPair(p *Params, g *Geometry, ff *ForceField, q []float64, idx int) *pairObj {
	cp := g.Pairs[idx]
	n := p.AtomsPerCell
	o := &pairObj{p: p, g: g, ff: ff, idx: idx, cp: cp, q: q}
	if cp.Self() {
		o.gate = core.NewStepGate(1)
		o.fa = make([]Vec3, n)
	} else {
		o.gate = core.NewStepGate(2)
		f := make([]Vec3, 2*n)
		o.fa, o.fb = f[:n:n], f[n:]
	}
	return o
}

// Recv implements core.Chare.
func (o *pairObj) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	if entry != EntryCoords {
		panic(fmt.Sprintf("leanmd: pair got unknown entry %d", entry))
	}
	m := data.(coordMsg)
	if _, ok := o.gate.Deliver(m.Step, data); ok {
		o.store(m)
		o.tryCompute(ctx)
	}
}

func (o *pairObj) store(m coordMsg) {
	if m.From == o.cp.A {
		o.posA = m.Pos
	}
	if m.From == o.cp.B {
		o.posB = m.Pos
	}
}

func (o *pairObj) tryCompute(ctx *core.Ctx) {
	if o.gate.Ready() {
		o.compute(ctx)
		advance(o.gate)
		o.posA, o.posB = nil, nil
	}
}

func (o *pairObj) compute(ctx *core.Ctx) {
	n := o.p.AtomsPerCell
	clear(o.fa)
	if o.cp.Self() {
		u := o.ff.SelfInteraction(o.posA, o.q, o.fa)
		if m := o.p.Model; m != nil {
			ctx.Charge(m.PairCost(n, n, true))
		}
		ctx.Send(core.ElemRef{Array: ArrayCells, Index: o.cp.A}, EntryForces,
			forceMsg{Step: o.gate.Step(), F: o.fa, U: u})
		return
	}
	clear(o.fb)
	u := o.ff.CellInteraction(o.posA, o.posB, o.q, o.q, o.fa, o.fb)
	if m := o.p.Model; m != nil {
		ctx.Charge(m.PairCost(n, n, false))
	}
	ctx.Send(core.ElemRef{Array: ArrayCells, Index: o.cp.A}, EntryForces,
		forceMsg{Step: o.gate.Step(), F: o.fa, U: u / 2})
	ctx.Send(core.ElemRef{Array: ArrayCells, Index: o.cp.B}, EntryForces,
		forceMsg{Step: o.gate.Step(), F: o.fb, U: u / 2})
}

// BuildProgram assembles LeanMD as a runnable core.Program. The program
// exits with a *Result. Cells and pairs are placed round-robin over PEs
// (cells block-mapped, pairs strided) so both clusters hold both kinds of
// objects, as in the paper's runs.
func BuildProgram(p *Params) (*core.Program, *Geometry, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	g, err := NewGeometry(p.NX, p.NY, p.NZ)
	if err != nil {
		return nil, nil, err
	}
	ff := p.Field()
	q := p.Charges()
	res := &Result{Steps: p.Steps, Warmup: p.Warmup, Cells: g.NumCells, Pairs: g.NumPairs()}
	var startAt time.Duration
	finalRound := int64(1)
	if p.Warmup > 0 {
		finalRound = 2
	}
	prog := &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: ArrayCells, N: g.NumCells,
				New: func(i int) core.Chare { return newCell(p, g, i) },
			},
			{
				ID: ArrayPairs, N: g.NumPairs(),
				New: func(i int) core.Chare { return newPair(p, g, ff, q, i) },
				// Pairs are placed with their lower cell's PE so that a
				// pair is local to at least one of its cells' clusters,
				// matching the paper's subset-A/subset-B structure.
				Map: func(i, numPE int) int {
					return core.BlockMap(g.Pairs[i].A, g.NumCells, numPE)
				},
			},
		},
		Start: func(ctx *core.Ctx) {
			startAt = ctx.Time()
			for i := 0; i < g.NumCells; i++ {
				ctx.Send(core.ElemRef{Array: ArrayCells, Index: i}, EntryKick, nil)
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) {
			switch seq {
			case finalRound:
				res.EFinal = v.(float64)
				res.FinishAt = ctx.Time()
				res.Total = res.FinishAt - startAt
				if p.Warmup > 0 {
					res.PerStep = (res.FinishAt - res.WarmupAt) / time.Duration(p.Steps-p.Warmup)
				} else {
					res.PerStep = res.Total / time.Duration(p.Steps)
				}
				ctx.ExitWith(res)
			default:
				res.EWarm = v.(float64)
				res.WarmupAt = ctx.Time()
			}
		},
	}
	return prog, g, nil
}

// Payload tags: LeanMD owns 84–87 (DESIGN.md has the table).
func init() {
	core.RegisterPayload[coordMsg](84)
	core.RegisterPayload[forceMsg](85)
}
