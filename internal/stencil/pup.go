package stencil

import (
	"gridmdo/internal/core"
)

// PUP implements core.Migratable: the visitor that carries a block across
// a load-balancer migration, with the pack→unpack→pack byte-identity the
// tests pin.
//
// Only the step counter, the block shape, and the current grid travel;
// everything else (neighbor topology, gate need, next buffer) is derived
// from Params by newBlock on the destination, and the unpacking branch
// validates the packed shape against that target program.
func (b *block) PUP(p *core.PUP) {
	if !p.Unpacking() && b.gate.PendingFuture() > 0 {
		// A block parked at AtSync owns no buffered future ghosts; anything
		// else is not a safe point to move.
		p.Errorf("stencil: pack block (%d,%d) with %d buffered future ghosts", b.bx, b.by, b.gate.PendingFuture())
		return
	}
	step, w, h := b.gate.Step(), b.w, b.h
	p.Int(&step)
	p.Int(&w)
	p.Int(&h)
	if p.Unpacking() && (w != b.w || h != b.h) {
		p.Errorf("stencil: restore block (%d,%d): packed state is %dx%d, program wants %dx%d",
			b.bx, b.by, w, h, b.w, b.h)
		return
	}
	p.Float64s(&b.cur)
	if p.Unpacking() {
		if len(b.cur) != (b.w+2)*(b.h+2) {
			p.Errorf("stencil: restore block (%d,%d): grid length %d, want %d",
				b.bx, b.by, len(b.cur), (b.w+2)*(b.h+2))
			return
		}
		copy(b.next, b.cur)
		b.gate.JumpTo(step)
	}
}

// interface check: blocks are migratable (needed by the load balancers).
var _ core.Migratable = (*block)(nil)
