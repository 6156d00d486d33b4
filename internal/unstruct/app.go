package unstruct

import (
	"fmt"
	"time"

	"gridmdo/internal/core"
)

// Entry methods of the chunk array.
const (
	EntryKick core.EntryID = 0
	EntryHalo core.EntryID = 1
)

// relaxOmega is the weight of the Jacobi update.
const relaxOmega = 0.5

// Params configures an irregular-relaxation run.
type Params struct {
	Vertices int   // mesh size
	Degree   int   // k-nearest connectivity
	Seed     int64 // mesh seed
	Chunks   int   // decomposition degree (objects)
	Steps    int
	Warmup   int
	Model    *CostModel
	Collect  func(chunk int, verts []int32, vals []float64)
}

// Validate checks parameter consistency.
func (p *Params) Validate() error {
	if p.Vertices < 2 || p.Degree < 1 {
		return fmt.Errorf("unstruct: bad mesh params v=%d k=%d", p.Vertices, p.Degree)
	}
	if p.Chunks < 1 || p.Chunks > p.Vertices {
		return fmt.Errorf("unstruct: %d chunks", p.Chunks)
	}
	if p.Steps <= 0 || p.Warmup < 0 || p.Warmup >= p.Steps {
		return fmt.Errorf("unstruct: bad steps=%d warmup=%d", p.Steps, p.Warmup)
	}
	return nil
}

// CostModel charges modeled time per relaxation sweep of a chunk.
type CostModel struct {
	PerEdgeNS   float64
	PerVertexNS float64
}

// DefaultModel uses era-plausible per-edge costs.
func DefaultModel() *CostModel {
	return &CostModel{PerEdgeNS: 12, PerVertexNS: 20}
}

// SweepCost models one relaxation of a chunk with v vertices and e edge
// traversals.
func (m *CostModel) SweepCost(v, e int) time.Duration {
	return time.Duration(float64(v)*m.PerVertexNS+float64(e)*m.PerEdgeNS) * time.Nanosecond
}

// haloMsg carries the boundary values one chunk owes another for a step.
// The vertex identities are implied by the partition's shared, sorted cut
// list for the (sender, receiver) pair.
type haloMsg struct {
	From int32
	Step int
	Vals []float64
}

// PayloadBytes implements core.Sizer.
func (h haloMsg) PayloadBytes() int { return 16 + 8*len(h.Vals) }

// PUP is the halo's wire form.
func (h *haloMsg) PUP(p *core.PUP) {
	core.PUPVarint(p, &h.From)
	core.PUPVarint(p, &h.Step)
	p.Float64s(&h.Vals)
}

// Result is the run outcome.
type Result struct {
	Checksum float64
	PerStep  time.Duration
	Total    time.Duration
	Steps    int
	Chunks   int
	CutEdges int
	WarmupAt time.Duration
	FinishAt time.Duration
}

// chunk is one irregular-mesh chare.
type chunk struct {
	p    *Params
	m    *Mesh
	part *Partition
	id   int

	val   map[int32]float64 // owned + halo vertex values (previous step)
	next  map[int32]float64 // owned values being computed
	edges int               // edge traversals per sweep (for the cost model)
	gate  *core.StepGate
	done  bool
}

func newChunk(p *Params, m *Mesh, part *Partition, id int) *chunk {
	c := &chunk{
		p: p, m: m, part: part, id: id,
		val:  make(map[int32]float64),
		next: make(map[int32]float64),
		gate: core.NewStepGate(len(part.NeedFrom[id])),
	}
	for _, v := range part.Verts[id] {
		c.val[v] = m.InitValue(int(v))
		c.edges += len(m.Adj[v])
	}
	for _, list := range part.NeedFrom[id] {
		for _, v := range list {
			c.val[v] = m.InitValue(int(v))
		}
	}
	return c
}

func (c *chunk) sendHalos(ctx *core.Ctx) {
	// Sorted destination order keeps the virtual-time executor
	// deterministic (map iteration order is not).
	dsts := make([]int32, 0, len(c.part.SendTo[c.id]))
	for dst := range c.part.SendTo[c.id] {
		dsts = append(dsts, dst)
	}
	sortInt32s(dsts)
	for _, dst := range dsts {
		verts := c.part.SendTo[c.id][dst]
		vals := make([]float64, len(verts))
		for i, v := range verts {
			vals[i] = c.val[v]
		}
		ctx.Send(core.ElemRef{Array: 0, Index: int(dst)}, EntryHalo,
			haloMsg{From: int32(c.id), Step: c.gate.Step(), Vals: vals})
	}
}

func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (c *chunk) applyHalo(h haloMsg) {
	verts := c.part.NeedFrom[c.id][h.From]
	for i, v := range verts {
		c.val[v] = h.Vals[i]
	}
}

func (c *chunk) relax(ctx *core.Ctx) {
	for _, v := range c.part.Verts[c.id] {
		adj := c.m.Adj[v]
		var sum float64
		for _, u := range adj {
			sum += c.val[u]
		}
		mean := sum / float64(len(adj))
		c.next[v] = (1-relaxOmega)*c.val[v] + relaxOmega*mean
	}
	for v, x := range c.next {
		c.val[v] = x
	}
	if c.p.Model != nil {
		ctx.Charge(c.p.Model.SweepCost(len(c.part.Verts[c.id]), c.edges))
	}
}

func (c *chunk) checksum() float64 {
	var s float64
	for _, v := range c.part.Verts[c.id] {
		s += c.val[v]
	}
	return s
}

// Recv implements core.Chare.
func (c *chunk) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	switch entry {
	case EntryKick:
		c.sendHalos(ctx)
		c.tryAdvance(ctx)
	case EntryHalo:
		h := data.(haloMsg)
		if c.done {
			return
		}
		if _, ok := c.gate.Deliver(h.Step, h); ok {
			c.applyHalo(h)
			c.tryAdvance(ctx)
		}
	default:
		panic(fmt.Sprintf("unstruct: unknown entry %d", entry))
	}
}

func (c *chunk) tryAdvance(ctx *core.Ctx) {
	for c.gate.Ready() && !c.done {
		c.relax(ctx)
		pend := c.gate.Advance()
		step := c.gate.Step()
		if step == c.p.Warmup && c.p.Warmup > 0 {
			ctx.Contribute(0.0, core.OpSum)
		}
		if step == c.p.Steps {
			c.done = true
			if c.p.Collect != nil {
				verts := c.part.Verts[c.id]
				vals := make([]float64, len(verts))
				for i, v := range verts {
					vals[i] = c.val[v]
				}
				c.p.Collect(c.id, verts, vals)
			}
			ctx.Contribute(c.checksum(), core.OpSum)
			return
		}
		c.sendHalos(ctx)
		for _, m := range pend {
			c.applyHalo(m.(haloMsg))
		}
	}
}

// BuildProgram assembles the irregular relaxation as a core.Program. The
// program exits with a *Result.
func BuildProgram(p *Params) (*core.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := NewMesh(p.Vertices, p.Degree, p.Seed)
	if err != nil {
		return nil, err
	}
	part, err := NewPartition(m, p.Chunks)
	if err != nil {
		return nil, err
	}
	cut := 0
	for c := 0; c < p.Chunks; c++ {
		for _, vs := range part.SendTo[c] {
			cut += len(vs)
		}
	}
	res := &Result{Steps: p.Steps, Chunks: p.Chunks, CutEdges: cut}
	var startAt time.Duration
	finalRound := int64(1)
	if p.Warmup > 0 {
		finalRound = 2
	}
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: p.Chunks,
			New: func(i int) core.Chare { return newChunk(p, m, part, i) },
		}},
		Start: func(ctx *core.Ctx) {
			startAt = ctx.Time()
			for i := 0; i < p.Chunks; i++ {
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
			default:
				res.WarmupAt = ctx.Time()
			}
		},
	}
	return prog, nil
}

// RunSequential computes the reference solution serially.
func RunSequential(p *Params) ([]float64, error) {
	m, err := NewMesh(p.Vertices, p.Degree, p.Seed)
	if err != nil {
		return nil, err
	}
	cur := make([]float64, m.NumVertices())
	next := make([]float64, m.NumVertices())
	for i := range cur {
		cur[i] = m.InitValue(i)
	}
	for s := 0; s < p.Steps; s++ {
		for v := range cur {
			adj := m.Adj[v]
			var sum float64
			for _, u := range adj {
				sum += cur[u]
			}
			mean := sum / float64(len(adj))
			next[v] = (1-relaxOmega)*cur[v] + relaxOmega*mean
		}
		cur, next = next, cur
	}
	return cur, nil
}

// Payload tags: the unstructured mesh owns 88–91 (DESIGN.md has the
// table).
func init() { core.RegisterPayload[haloMsg](88) }
