package main

import (
	"fmt"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

// sim_wave: a token wave on the virtual-time engines. Tokens hop stride-1
// round a chare array spread over every PE, mixing a per-chare scratch
// buffer into their value at each hop; a root chare sums the finished
// tokens. The sequential engine runs first and is the reference the
// parallel engine must reproduce exactly.

type waveSizes struct {
	spec        string // topology.ParseSpec text
	charesPerPE int
	tokensPerPE int
	hops        int
	scratch     int           // words mixed per hop
	hopCost     time.Duration // model time charged per hop
}

type waveToken struct {
	Hops int
	Val  uint64
}

type waveChare struct {
	idx, chares int
	hopCost     time.Duration
	scratch     []uint64
	root        core.ElemRef
}

func (c *waveChare) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	tok := data.(waveToken)
	v := tok.Val
	for _, s := range c.scratch {
		v = splitmix(v ^ s)
	}
	ctx.Charge(c.hopCost)
	if tok.Hops > 0 {
		ctx.Send(core.ElemRef{Array: 0, Index: (c.idx + 1) % c.chares}, 0, waveToken{Hops: tok.Hops - 1, Val: v})
		return
	}
	ctx.Send(c.root, 0, v)
}

// waveRoot exits with the order-independent sum of the finished tokens.
type waveRoot struct {
	want, count int
	sum         uint64
}

func (r *waveRoot) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	r.sum += data.(uint64)
	if r.count++; r.count == r.want {
		ctx.ExitWith(r.sum)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func waveProgram(sz waveSizes, numPE int, seed uint64) *core.Program {
	chares := sz.charesPerPE * numPE
	tokens := sz.tokensPerPE * numPE
	root := core.ElemRef{Array: 1, Index: 0}
	return &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: 0, N: chares,
				New: func(i int) core.Chare {
					c := &waveChare{idx: i, chares: chares, hopCost: sz.hopCost, root: root, scratch: make([]uint64, sz.scratch)}
					for j := range c.scratch {
						c.scratch[j] = splitmix(seed ^ (uint64(i)<<20 + uint64(j)))
					}
					return c
				},
				Map: func(i, pes int) int { return i % pes },
			},
			{ID: 1, N: 1, New: func(int) core.Chare { return &waveRoot{want: tokens} }, Map: func(int, int) int { return 0 }},
		},
		Start: func(ctx *core.Ctx) {
			for t := 0; t < tokens; t++ {
				ctx.Send(core.ElemRef{Array: 0, Index: t}, 0, waveToken{Hops: sz.hops, Val: splitmix(seed + uint64(t))})
			}
		},
	}
}

type simRunner struct {
	sz   waveSizes
	seed uint64
}

func newSimRunner(cfg runConfig) (runner, error) {
	// The mesh seed is kept to 16 bits: the spec grammar takes a decimal.
	mesh := uint64(cfg.seed) & 0xffff
	sz := waveSizes{
		spec:        fmt.Sprintf("16x64;wan=5ms;mesh=rand:%d:2ms:10ms", mesh),
		charesPerPE: 4, tokensPerPE: 2, hops: 100, scratch: 64, hopCost: 10 * time.Microsecond,
	}
	if cfg.toy {
		sz.spec = fmt.Sprintf("4x16;wan=5ms;mesh=rand:%d:2ms:10ms", mesh)
		sz.hops = 20
	}
	return &simRunner{sz: sz, seed: uint64(cfg.seed)}, nil
}

func (s *simRunner) plannedOps() int64 { return 2 }

type waveRun struct {
	sum     uint64
	virtual time.Duration
	stats   sim.Stats
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration
}

func (s *simRunner) engine(workers int) (waveRun, error) {
	var w waveRun
	setupFrom := time.Now()
	spec, err := topology.ParseSpec(s.sz.spec)
	if err != nil {
		return w, err
	}
	topo, err := spec.Build()
	if err != nil {
		return w, err
	}
	prog := waveProgram(s.sz, topo.NumPE(), s.seed)
	var e *sim.Engine
	if workers == 0 {
		e, err = sim.New(topo, prog, sim.Options{})
	} else {
		e, err = sim.NewParallel(topo, prog, sim.Options{}, workers)
	}
	if err != nil {
		return w, err
	}
	w.setup = time.Since(setupFrom)
	cpu0, from := cpuTime(), time.Now()
	v, vt, err := e.Run()
	w.wall, w.cpu = time.Since(from), cpuTime()-cpu0
	if err != nil {
		return w, err
	}
	sum, ok := v.(uint64)
	if !ok {
		return w, fmt.Errorf("wave exited with %T", v)
	}
	w.sum, w.virtual, w.stats = sum, vt, e.Stats()
	return w, nil
}

// run executes the wave on both engines. Nothing of core.Runtime runs
// here, so the traced pass has no hooks to attach and repeats the untraced
// measurement; its per-layer values come from Engine.Stats.
func (s *simRunner) run(bool) (rep, error) {
	var r rep
	seq, err := s.engine(0)
	if err != nil {
		return r, err
	}
	par, err := s.engine(2)
	if err != nil {
		return r, err
	}
	switch {
	case par.sum != seq.sum:
		return r, oracleErr("parallel checksum", par.sum, seq.sum)
	case par.stats.Events != seq.stats.Events:
		return r, oracleErr("parallel events", par.stats.Events, seq.stats.Events)
	case par.virtual != seq.virtual:
		return r, oracleErr("parallel virtual time", par.virtual, seq.virtual)
	}
	r.attempted = 2 // two engine runs, each right or wrong as a whole
	r.setup = par.setup
	r.ops, r.wall, r.cpu = par.stats.Events, par.wall, par.cpu
	r.opTimeUS = us(seq.wall) / float64(seq.stats.Events)
	r.set("sim.events", float64(seq.stats.Events))
	r.set("sim.msgs", float64(seq.stats.Messages))
	r.set("sim.virtual_ms", float64(seq.virtual.Nanoseconds())/1e6)
	r.set("sim.shards", float64(par.stats.Shards))
	r.set("sim.par_speedup", seq.wall.Seconds()/par.wall.Seconds())
	return r, nil
}
