package leanmd

import (
	"gridmdo/internal/core"
)

// Serialization of cells and cell-pairs through the core PUP layer,
// enabling load balancing (elements migrate between PEs, including
// across gridnode processes) and checkpoint/restart.

// pupVec3s moves a []Vec3 — in messages and in a cell's packed state
// alike — as a count and three bit-exact floats per vector.
func pupVec3s(p *core.PUP, v *[]Vec3) {
	core.PUPSlice(p, v, 24, 0, func(w *Vec3, p *core.PUP) {
		p.Float64(&w.X)
		p.Float64(&w.Y)
		p.Float64(&w.Z)
	})
}

// PUP implements core.Migratable. Positions, the two velocity views of
// the leapfrog, and the step counter travel; geometry, charges, and
// section wiring rebuild from Params on the destination.
func (c *cell) PUP(p *core.PUP) {
	if !p.Unpacking() && c.gate.PendingFuture() > 0 {
		p.Errorf("leanmd: pack cell %d with %d buffered future forces", c.id, c.gate.PendingFuture())
		return
	}
	step, started := c.gate.Step(), c.started
	p.Int(&step)
	p.Bool(&started)
	pupVec3s(p, &c.pos)
	pupVec3s(p, &c.vHalf)
	pupVec3s(p, &c.vel)
	if p.Unpacking() {
		if len(c.pos) != c.p.AtomsPerCell {
			p.Errorf("leanmd: restore cell %d: %d atoms, program wants %d", c.id, len(c.pos), c.p.AtomsPerCell)
			return
		}
		if len(c.vHalf) != len(c.pos) || len(c.vel) != len(c.pos) {
			p.Errorf("leanmd: restore cell %d: velocity lengths %d/%d do not match %d atoms",
				c.id, len(c.vHalf), len(c.vel), len(c.pos))
			return
		}
		// Checkpoint restores only: a migrating cell carries its reduction
		// history, so being past the warmup round is fine mid-run.
		if p.Checkpointing() && c.p.Warmup > 0 && c.p.Warmup <= step {
			p.Errorf("leanmd: restore cell %d: warmup %d not after restored step %d", c.id, c.p.Warmup, step)
			return
		}
		c.gate.JumpTo(step)
		c.started = started
		c.done = step >= c.p.Steps
	}
}

// PUP implements core.Migratable. A pair's only durable state is its
// step counter; in-flight coordinates are never present at a sync or
// checkpoint quiescent point, and packing with any buffered is refused.
func (o *pairObj) PUP(p *core.PUP) {
	if !p.Unpacking() && (o.posA != nil || o.posB != nil || o.gate.PendingFuture() > 0) {
		p.Errorf("leanmd: pack pair %d with coordinates in flight", o.idx)
		return
	}
	step := o.gate.Step()
	p.Int(&step)
	if p.Unpacking() {
		o.gate.JumpTo(step)
	}
}

var (
	_ core.Migratable = (*cell)(nil)
	_ core.Migratable = (*pairObj)(nil)
)
