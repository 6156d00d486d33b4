package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/metrics"
	"gridmdo/internal/stencil"
	"gridmdo/internal/telemetry"
	"gridmdo/internal/trace"
)

// The two applications of the paper's evaluation, each on two TCP-joined
// nodes of two PEs with the delay device supplying the wide-area latency.

// appLayers adds what only the WAN workloads report to a traced
// repetition: how much of the flight time the scheduler overlapped.
func appLayers(r *rep, o *observe, m machine) {
	evs, horizon := coreLayers(r, o, m)
	r.set("core.masked_frac", trace.ComputeOverlap(evs, m.numPE, horizon).MaskedFraction())
}

type stencilSizes struct {
	width, objects int // objects per side
	warmup, steps  int // steps = measured steps after warmup
	wan            time.Duration
}

type stencilRunner struct {
	sz   stencilSizes
	want float64 // checksum of the sequential reference
}

// The mesh is sized so that a step's compute (about 1.8 ms on each of two
// cores) fits well under the 4 ms latency: the regime the paper claims,
// where a step costs the latency and little more as long as the scheduler
// overlaps the two. A 2048x2048 mesh, 7.5 ms of compute per step, measured
// the shared host's memory bandwidth instead: 78 to 152 steps/s from one
// commit within ten minutes, where this one read 201.6 to 204.0 over twenty
// in which the compute-bound workloads drifted by 12 %.
func newStencilRunner(cfg runConfig) (runner, error) {
	sz := stencilSizes{width: 768, objects: 8, warmup: 5, steps: 40, wan: 4 * time.Millisecond}
	if cfg.toy {
		sz = stencilSizes{width: 64, objects: 4, warmup: 2, steps: 6, wan: time.Millisecond}
	}
	// The initial condition is fixed by the program, so the seed has
	// nothing to vary here; the reference is computed once, outside setup.
	ref := stencil.RunSequential(sz.width, sz.width, sz.warmup+sz.steps)
	return &stencilRunner{sz: sz, want: stencil.Checksum(ref)}, nil
}

func (s *stencilRunner) plannedOps() int64 { return int64(s.sz.steps) }

// stripsFromLastPE is the program's default placement, contiguous column
// strips, with the PEs in reverse order: the last strip is on PE 0, where
// Start runs. With the default order the stencil can hang (README.md,
// "Known open defect"): the last block's kick crosses to the other node
// behind its two neighbours' kicks, and when their step-0 ghosts reach it
// first it advances and never sends its own. On PE 0 all three kicks are
// queued by Start before any of them runs. The placement is a mirror image
// of the default one: the same cut, messages and work per PE.
func (s *stencilRunner) stripsFromLastPE(i, numPE int) int {
	return numPE - 1 - core.BlockMap(i, s.sz.objects*s.sz.objects, numPE)
}

func (s *stencilRunner) run(traced bool) (rep, error) {
	var r rep
	var o *observe
	if traced {
		o = newObserve(4, 32*s.sz.objects*s.sz.objects*(s.sz.warmup+s.sz.steps))
	}
	mk := func() (*core.Program, error) {
		return stencil.BuildProgram(&stencil.Params{
			Width: s.sz.width, Height: s.sz.width, VX: s.sz.objects, VY: s.sz.objects,
			Steps: s.sz.warmup + s.sz.steps, Warmup: s.sz.warmup,
			InitialMap: s.stripsFromLastPE,
		})
	}
	setupFrom := time.Now()
	c, err := newCluster(2, s.sz.wan, mk, o)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(setupFrom)

	var agent *agentTicker
	if o != nil {
		agent = startAgent(o.reg, c.rts[0])
	}
	cpu0 := cpuTime()
	v, _, err := c.run(&r)
	cpu := cpuTime() - cpu0
	if agent != nil {
		agent.stop(&r)
	}
	if err != nil {
		return r, err
	}
	res, ok := v.(*stencil.Result)
	if !ok {
		return r, fmt.Errorf("stencil exited with %T", v)
	}
	if rel := math.Abs(res.Checksum-s.want) / math.Abs(s.want); rel > 1e-9 {
		return r, oracleErr("stencil checksum", res.Checksum, s.want)
	}
	r.attempted = int64(s.sz.steps)
	r.ops = int64(s.sz.steps)
	r.wall = res.PerStep * time.Duration(s.sz.steps)
	// CPU time covers the warm-up steps too; scale it to the measured ones.
	r.cpu = cpu * time.Duration(s.sz.steps) / time.Duration(s.sz.warmup+s.sz.steps)
	r.opTimeUS = us(res.PerStep)
	if o != nil {
		appLayers(&r, o, twoNodes(2, s.sz.wan))
	}
	return r, nil
}

// agentTicker drives a telemetry agent from outside: ReportOnce every
// 100 ms into a collector, timing each call.
type agentTicker struct {
	quit   chan struct{}
	wg     sync.WaitGroup
	callUS []float64
	bytes  []float64
}

func startAgent(reg *metrics.Registry, rt *core.Runtime) *agentTicker {
	t := &agentTicker{quit: make(chan struct{})}
	col := telemetry.NewCollector(telemetry.CollectorConfig{})
	agent, err := telemetry.NewAgent(telemetry.AgentConfig{
		Node: 0, Registry: reg, Epoch: rt.Epoch(), NumPE: 2,
		Send: func(b []byte) error {
			t.bytes = append(t.bytes, float64(len(b)))
			return col.Ingest(b)
		},
	})
	if err != nil {
		return nil
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.quit:
				return
			case <-tick.C:
				from := time.Now()
				if agent.ReportOnce() == nil {
					t.callUS = append(t.callUS, us(time.Since(from)))
				}
			}
		}
	}()
	return t
}

func (t *agentTicker) stop(r *rep) {
	close(t.quit)
	t.wg.Wait()
	r.set("telemetry.report_us_p50", median(t.callUS))
	r.set("telemetry.report_bytes", median(t.bytes))
}

type leanmdSizes struct {
	cells, atoms  int // cells per side, atoms per cell
	warmup, steps int
	wan           time.Duration
}

// leanmdDriftBound is the relative energy drift the integrator is allowed
// between the warm-up step and the last step at the sizes below.
const leanmdDriftBound = 1e-3

type leanmdRunner struct {
	sz     leanmdSizes
	seed   int64
	eFinal float64 // first repetition's final energy; later ones must equal it
	seen   bool
}

func newLeanMDRunner(cfg runConfig) (runner, error) {
	sz := leanmdSizes{cells: 6, atoms: 12, warmup: 3, steps: 10, wan: 8 * time.Millisecond}
	if cfg.toy {
		sz = leanmdSizes{cells: 3, atoms: 4, warmup: 2, steps: 4, wan: time.Millisecond}
	}
	return &leanmdRunner{sz: sz, seed: cfg.seed}, nil
}

func (l *leanmdRunner) params() *leanmd.Params {
	p := leanmd.DefaultParams()
	p.NX, p.NY, p.NZ = l.sz.cells, l.sz.cells, l.sz.cells
	p.AtomsPerCell = l.sz.atoms
	p.Steps, p.Warmup = l.sz.warmup+l.sz.steps, l.sz.warmup
	p.Seed = l.seed
	return p
}

func (l *leanmdRunner) plannedOps() int64 { return int64(l.sz.steps) }

func (l *leanmdRunner) run(traced bool) (rep, error) {
	var r rep
	var o *observe
	if traced {
		n := l.sz.cells * l.sz.cells * l.sz.cells
		o = newObserve(4, 4*n*(27+28)*(l.sz.warmup+l.sz.steps))
	}
	mk := func() (*core.Program, error) {
		prog, _, err := leanmd.BuildProgram(l.params())
		return prog, err
	}
	setupFrom := time.Now()
	c, err := newCluster(2, l.sz.wan, mk, o)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(setupFrom)
	cpu0 := cpuTime()
	v, _, err := c.run(&r)
	cpu := cpuTime() - cpu0
	if err != nil {
		return r, err
	}
	res, ok := v.(*leanmd.Result)
	if !ok {
		return r, fmt.Errorf("leanmd exited with %T", v)
	}
	if d := math.Abs(res.Drift()); !(d < leanmdDriftBound) {
		return r, oracleErr("leanmd energy drift", d, fmt.Sprintf("< %g", leanmdDriftBound))
	}
	// Cells add force contributions in arrival order, so the last bits of
	// the energy differ from run to run; anything more is a wrong result.
	if l.seen && math.Abs(res.EFinal-l.eFinal) > 1e-9*math.Abs(l.eFinal) {
		return r, oracleErr("leanmd final energy", res.EFinal, l.eFinal)
	}
	l.eFinal, l.seen = res.EFinal, true
	r.attempted = int64(l.sz.steps)
	r.ops = int64(l.sz.steps)
	r.wall = res.PerStep * time.Duration(l.sz.steps)
	r.cpu = cpu * time.Duration(l.sz.steps) / time.Duration(l.sz.warmup+l.sz.steps)
	r.opTimeUS = us(res.PerStep)
	if o != nil {
		appLayers(&r, o, twoNodes(2, l.sz.wan))
	}
	return r, nil
}
