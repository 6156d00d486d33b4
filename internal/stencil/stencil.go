// Package stencil implements the paper's first evaluation application: a
// five-point stencil (Jacobi) relaxation over a two-dimensional mesh,
// decomposed into VX×VY message-driven objects. Each object owns a
// rectangular block of the mesh and exchanges one ghost row/column with
// each of its (up to) four neighbors per time step — "four discrete
// communication events per cell [block] for each time-step".
//
// The degree of virtualization is the paper's experimental knob: a
// 2048×2048 mesh split into 4, 16, 64, 256, or 1024 objects. Because
// there is no global barrier, objects waiting for ghost data from across
// the wide-area link leave the PE free to advance other objects; the delay
// wave pipelines inward one block per step, which is exactly the latency
// tolerance the paper measures.
package stencil

import (
	"fmt"
	"math"
	"time"

	"gridmdo/internal/core"
)

// Entry methods of the block array.
const (
	EntryKick  core.EntryID = 0 // begin time-stepping
	EntryGhost core.EntryID = 1 // a neighbor's boundary vector
)

// Directions for ghost exchange.
const (
	dirLeft = iota
	dirRight
	dirUp
	dirDown
	numDirs
)

var opposite = [numDirs]int{dirRight, dirLeft, dirDown, dirUp}

// Params configures one stencil run.
type Params struct {
	Width, Height int // mesh dimensions in cells
	VX, VY        int // object grid; VX*VY objects
	Steps         int // total time steps
	Warmup        int // steps before steady-state timing begins (< Steps)

	// Model, if non-nil, charges modeled execution time per block update
	// (used by the virtual-time executor).
	Model *CostModel

	// Collect, if non-nil, is called by each block with its final interior
	// values (in-process verification hook; must be safe for concurrent
	// use under the real-time runtime).
	Collect func(bx, by, x0, y0, w, h int, vals []float64)

	// LB, if non-nil, enables AtSync load-balancing: one round after step
	// LBAtStep, or — when LBEvery is set — a round every LBEvery steps
	// (the gridnode -lb-period flag). The sync point — immediately after
	// a step's compute, before its borders are sent — is
	// application-quiescent: no ghost message can be in flight, so blocks
	// migrate safely.
	LB       core.Strategy
	LBAtStep int
	LBEvery  int

	// InitialMap optionally overrides the default block placement
	// (contiguous column strips); used by the load-balancing ablation to
	// start from a deliberately skewed layout.
	InitialMap func(i, numPE int) int
}

// Validate checks parameter consistency.
func (p *Params) Validate() error {
	if p.Width < 3 || p.Height < 3 {
		return fmt.Errorf("stencil: mesh %dx%d too small", p.Width, p.Height)
	}
	if p.VX <= 0 || p.VY <= 0 {
		return fmt.Errorf("stencil: object grid %dx%d invalid", p.VX, p.VY)
	}
	if p.VX > p.Width || p.VY > p.Height {
		return fmt.Errorf("stencil: more objects (%dx%d) than cells (%dx%d)", p.VX, p.VY, p.Width, p.Height)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("stencil: %d steps", p.Steps)
	}
	if p.Warmup < 0 || p.Warmup >= p.Steps {
		return fmt.Errorf("stencil: warmup %d must be in [0, steps=%d)", p.Warmup, p.Steps)
	}
	if p.LBEvery < 0 {
		return fmt.Errorf("stencil: LBEvery %d must be >= 0", p.LBEvery)
	}
	if p.LB != nil && p.LBEvery == 0 && (p.LBAtStep <= 0 || p.LBAtStep >= p.Steps) {
		return fmt.Errorf("stencil: LBAtStep %d must be in (0, steps=%d)", p.LBAtStep, p.Steps)
	}
	return nil
}

// syncAt reports whether a balancing round runs after the given step.
func (p *Params) syncAt(step int) bool {
	if p.LB == nil || step <= 0 || step >= p.Steps {
		return false
	}
	if p.LBEvery > 0 {
		return step%p.LBEvery == 0
	}
	return step == p.LBAtStep
}

// NumObjects reports the virtualization degree VX*VY.
func (p *Params) NumObjects() int { return p.VX * p.VY }

// Side returns the blocks per axis of a square decomposition into
// objects blocks, or an error when objects is not a perfect square.
func Side(objects int) (int, error) {
	v := int(math.Round(math.Sqrt(float64(objects))))
	if v < 1 || v*v != objects {
		return 0, fmt.Errorf("stencil: objects=%d is not a perfect square", objects)
	}
	return v, nil
}

// blockIndex linearizes object coordinates column-major, so that the
// default block placement gives each PE a contiguous strip of columns and
// the two-cluster cut is a single vertical line through the object grid.
func (p *Params) blockIndex(bx, by int) int { return bx*p.VY + by }

// blockCoords inverts blockIndex.
func (p *Params) blockCoords(i int) (bx, by int) { return i / p.VY, i % p.VY }

// span splits n cells over k blocks: block i gets [offset, offset+size).
func span(n, k, i int) (offset, size int) {
	base, rem := n/k, n%k
	size = base
	if i < rem {
		size++
		offset = i * (base + 1)
	} else {
		offset = rem*(base+1) + (i-rem)*base
	}
	return offset, size
}

// The initial condition is a smooth, separable field over the mesh,
// sin(0.013x) + cos(0.017y). Boundary cells keep their initial value for
// the whole run (Dirichlet boundary).
func initX(x int) float64 { return math.Sin(float64(x) * 0.013) }
func initY(y int) float64 { return math.Cos(float64(y) * 0.017) }

// fillInit writes the initial condition over the w×h window whose corner
// is (x0, y0) into dst, row by row, with coordinates clamped to the
// width×height mesh (so a block's ghost ring beyond the mesh edge repeats
// the boundary value). It takes one Sin per column and one Cos per row,
// not one of each per cell; the sum of the two is what a per-cell
// evaluation adds, so every value is the same bit for bit.
func fillInit(dst []float64, x0, y0, w, h, width, height int) {
	xs := make([]float64, w)
	for i := range xs {
		xs[i] = initX(clamp(x0+i, 0, width-1))
	}
	for j := 0; j < h; j++ {
		y := initY(clamp(y0+j, 0, height-1))
		row := dst[j*w : (j+1)*w]
		for i := range row {
			row[i] = xs[i] + y
		}
	}
}

// ghostMsg carries one boundary vector.
type ghostMsg struct {
	Dir  int // direction the message travels (receiver applies on opposite side)
	Step int
	Vals []float64
}

// PayloadBytes implements core.Sizer: the paper's 256×1 vectors of cells.
func (g ghostMsg) PayloadBytes() int { return 16 + 8*len(g.Vals) }

// PUP is the ghost's wire form.
func (g *ghostMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &g.Dir)
	core.PUPVarint(p, &g.Step)
	p.Float64s(&g.Vals)
}

// Result is the run outcome delivered through ExitWith.
type Result struct {
	Checksum  float64       // sum of all interior cells after the run
	PerStep   time.Duration // steady-state time per step
	Total     time.Duration // time from start to final reduction
	Steps     int
	Warmup    int
	Objects   int
	WarmupAt  time.Duration // time of the warmup reduction
	FinishAt  time.Duration // time of the final reduction
	MaxMemory int           // cells resident across all blocks (sanity)
}

// block is one stencil chare.
type block struct {
	p      *Params
	bx, by int
	x0, y0 int // global position of interior cell (0,0)
	w, h   int

	cur, next []float64 // (w+2)×(h+2) including ghost ring
	gate      *core.StepGate
	done      bool

	// out holds the border vectors this block sends, per direction,
	// double-buffered by step parity. A neighbour has applied this block's
	// step-k vector before it sends its own step k+1 borders, and this
	// block refills that buffer, for step k+2, only after finishing step
	// k+1, which needs those borders. One buffer is not enough: tryAdvance
	// sends a step's borders before it applies the ghosts it buffered for
	// that step (DESIGN.md, "App payload ownership").
	out [2][numDirs][]float64

	// kicked is set once the borders of the gate's current step are out:
	// by EntryKick at the start, by EntryResumeFromSync after a sync. The
	// kick is an input of the step like the ghosts are — neighbours' ghosts
	// can overtake it (kicks cross to another node frame by frame), and a
	// block that advanced on ghosts alone would skip sending that step's
	// borders and leave its neighbours waiting for them.
	kicked bool
}

func newBlock(p *Params, idx int) *block {
	bx, by := p.blockCoords(idx)
	x0, w := span(p.Width, p.VX, bx)
	y0, h := span(p.Height, p.VY, by)
	b := &block{
		p: p, bx: bx, by: by, x0: x0, y0: y0, w: w, h: h,
		cur:  make([]float64, (w+2)*(h+2)),
		next: make([]float64, (w+2)*(h+2)),
	}
	// Fill interior and ghost ring from the initial condition. Ghost cells
	// that correspond to real mesh cells will be overwritten by neighbor
	// data each step; ghosts beyond the mesh edge keep the boundary value.
	fillInit(b.cur, x0-1, y0-1, w+2, h+2, p.Width, p.Height)
	copy(b.next, b.cur)
	need := 0
	for d := 0; d < numDirs; d++ {
		if _, ok := b.neighbor(d); ok {
			need++
			n := h
			if d == dirUp || d == dirDown {
				n = w
			}
			b.out[0][d], b.out[1][d] = make([]float64, n), make([]float64, n)
		}
	}
	b.gate = core.NewStepGate(need)
	return b
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// neighbor reports the array index of the block in direction d, if any.
func (b *block) neighbor(d int) (int, bool) {
	bx, by := b.bx, b.by
	switch d {
	case dirLeft:
		bx--
	case dirRight:
		bx++
	case dirUp:
		by--
	case dirDown:
		by++
	}
	if bx < 0 || bx >= b.p.VX || by < 0 || by >= b.p.VY {
		return 0, false
	}
	return b.p.blockIndex(bx, by), true
}

// border extracts the interior boundary vector facing direction d into
// the current step's buffer for d.
func (b *block) border(d int) []float64 {
	w, h := b.w, b.h
	stride := w + 2
	out := b.out[b.gate.Step()&1][d]
	switch d {
	case dirLeft:
		for y := range out {
			out[y] = b.cur[(y+1)*stride+1]
		}
	case dirRight:
		for y := range out {
			out[y] = b.cur[(y+1)*stride+w]
		}
	case dirUp:
		copy(out, b.cur[stride+1:])
	case dirDown:
		copy(out, b.cur[h*stride+1:])
	default:
		panic("stencil: bad direction")
	}
	return out
}

// applyGhost installs a received boundary vector into the ghost ring. The
// message traveled in direction g.Dir, so it lands on this block's
// opposite side.
func (b *block) applyGhost(g ghostMsg) {
	w, h := b.w, b.h
	stride := w + 2
	switch g.Dir {
	case dirRight: // came from the left neighbor: our left ghost column
		for y := 0; y < h; y++ {
			b.cur[(y+1)*stride] = g.Vals[y]
		}
	case dirLeft: // from the right neighbor
		for y := 0; y < h; y++ {
			b.cur[(y+1)*stride+w+1] = g.Vals[y]
		}
	case dirDown: // from the upper neighbor: our top ghost row
		for x := 0; x < w; x++ {
			b.cur[x+1] = g.Vals[x]
		}
	case dirUp: // from the lower neighbor
		for x := 0; x < w; x++ {
			b.cur[(h+1)*stride+x+1] = g.Vals[x]
		}
	}
}

// sendBorders ships this block's current boundaries for the current step.
func (b *block) sendBorders(ctx *core.Ctx) {
	for d := 0; d < numDirs; d++ {
		if n, ok := b.neighbor(d); ok {
			ctx.Send(core.ElemRef{Array: 0, Index: n}, EntryGhost,
				ghostMsg{Dir: d, Step: b.gate.Step(), Vals: b.border(d)})
		}
	}
}

// compute performs one Jacobi update over the interior, honoring the
// global Dirichlet boundary, and charges the modeled cost. A block row on
// the mesh's top or bottom edge is copied whole, a cell on its left or
// right edge apart; the rest of each row runs over four shifted row
// slices, summed in the same order as the per-cell formula.
func (b *block) compute(ctx *core.Ctx) {
	w, h := b.w, b.h
	stride := w + 2
	xlo, xhi := 0, w // the row's cells [xlo, xhi) are off the mesh edge
	if b.x0 == 0 {
		xlo = 1
	}
	if b.x0+w == b.p.Width {
		xhi = w - 1
	}
	for y := 0; y < h; y++ {
		row := (y+1)*stride + 1
		src, dst := b.cur[row:row+w], b.next[row:row+w]
		if gy := b.y0 + y; gy == 0 || gy == b.p.Height-1 {
			copy(dst, src) // fixed boundary
			continue
		}
		if xlo > 0 {
			dst[0] = src[0]
		}
		if xhi < w {
			dst[w-1] = src[w-1]
		}
		i := row + xlo
		out := b.next[i : i+xhi-xlo]
		l := b.cur[i-1:][:len(out)]
		r := b.cur[i+1:][:len(out)]
		up := b.cur[i-stride:][:len(out)]
		dn := b.cur[i+stride:][:len(out)]
		for j := range out {
			out[j] = 0.25 * (l[j] + r[j] + up[j] + dn[j])
		}
	}
	b.cur, b.next = b.next, b.cur
	if m := b.p.Model; m != nil {
		ctx.Charge(m.BlockCost(b.w, b.h))
	}
}

// checksum sums the interior cells.
func (b *block) checksum() float64 {
	stride := b.w + 2
	var s float64
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			s += b.cur[(y+1)*stride+x+1]
		}
	}
	return s
}

// Recv implements core.Chare.
func (b *block) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case EntryKick:
		b.kicked = true
		b.sendBorders(ctx)
		b.tryAdvance(ctx)
	case core.EntryResumeFromSync:
		// Back from a load-balancing round (possibly on a new PE): emit
		// the borders for the step the sync interrupted.
		b.kicked = true
		b.sendBorders(ctx)
		b.tryAdvance(ctx)
	case EntryGhost:
		g := data.(ghostMsg)
		if b.done {
			return
		}
		if _, ok := b.gate.Deliver(g.Step, data); ok {
			b.applyGhost(g)
			b.tryAdvance(ctx)
		}
	default:
		panic(fmt.Sprintf("stencil: unknown entry %d", entry))
	}
}

// tryAdvance runs as many steps as buffered data allows, once the block
// has been kicked.
func (b *block) tryAdvance(ctx *core.Ctx) {
	for b.kicked && b.gate.Ready() && !b.done {
		if b.bx == 0 && b.by == 0 {
			// One block marks step boundaries so the overlap profiler can
			// segment the trace into per-step windows.
			ctx.Mark("step", int64(b.gate.Step()), 0)
		}
		b.compute(ctx)
		pend := b.gate.Advance()
		step := b.gate.Step()

		if step == b.p.Warmup && b.p.Warmup > 0 {
			// Steady-state timing marker (round 1 when warmup enabled).
			ctx.Contribute(0.0, core.OpSum)
		}
		if step == b.p.Steps {
			b.done = true
			if b.p.Collect != nil {
				stride := b.w + 2
				vals := make([]float64, b.w*b.h)
				for y := 0; y < b.h; y++ {
					copy(vals[y*b.w:(y+1)*b.w], b.cur[(y+1)*stride+1:(y+1)*stride+1+b.w])
				}
				b.p.Collect(b.bx, b.by, b.x0, b.y0, b.w, b.h, vals)
			}
			ctx.Contribute(b.checksum(), core.OpSum)
			return
		}
		if b.p.syncAt(step) {
			// Application-quiescent point: every ghost this block is owed
			// has been consumed and none for this step have been sent.
			b.kicked = false
			ctx.AtSync()
			return
		}
		b.sendBorders(ctx)
		// Apply any ghosts that arrived early for the new step.
		for _, m := range pend {
			b.applyGhost(m.(ghostMsg))
		}
	}
}

// BuildProgram assembles the stencil as a runnable core.Program. The
// program exits with a *Result.
func BuildProgram(p *Params) (*core.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Steps: p.Steps, Warmup: p.Warmup, Objects: p.NumObjects()}
	var startAt time.Duration
	finalRound := int64(1)
	if p.Warmup > 0 {
		finalRound = 2
	}
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: p.NumObjects(),
			New: func(i int) core.Chare { return newBlock(p, i) },
			Map: p.InitialMap,
		}},
		Start: func(ctx *core.Ctx) {
			startAt = ctx.Time()
			for i := 0; i < p.NumObjects(); i++ {
				ctx.Send(core.ElemRef{Array: 0, Index: i}, EntryKick, nil)
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) {
			switch seq {
			case finalRound:
				res.Checksum = v.(float64)
				res.FinishAt = ctx.Time()
				res.Total = res.FinishAt - startAt
				if p.Warmup > 0 {
					res.PerStep = (res.FinishAt - res.WarmupAt) / time.Duration(p.Steps-p.Warmup)
				} else {
					res.PerStep = res.Total / time.Duration(p.Steps)
				}
				ctx.ExitWith(res)
			default: // warmup marker
				res.WarmupAt = ctx.Time()
			}
		},
	}
	if p.LB != nil {
		prog.LB = &core.LBConfig{Arrays: []core.ArrayID{0}, Strategy: p.LB}
	}
	return prog, nil
}

// Payload tags: the stencil owns 80–83 (DESIGN.md has the table).
func init() { core.RegisterPayload[ghostMsg](80) }
