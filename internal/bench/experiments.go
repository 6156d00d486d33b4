package bench

import (
	"fmt"
	"io"
	"time"

	"gridmdo/internal/balance"
	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/unstruct"
)

// Figure3 regenerates the paper's Figure 3: five-point stencil per-step
// time as a function of injected one-way latency, one sub-plot per
// processor count, one curve per virtualization degree.
func Figure3(w io.Writer, p Profile) (*Figure, error) {
	fig := &Figure{
		Title: fmt.Sprintf("Figure 3: %dx%d stencil, per-step time (ms) vs one-way latency", p.Stencil.Width, p.Stencil.Height),
		XName: "latency",
	}
	for _, procs := range figure4Procs() {
		sub := SubPlot{Title: fmt.Sprintf("%d processors (%d+%d)", procs, procs/2, procs/2)}
		for _, v := range figure3Virt(procs) {
			if v < procs {
				continue // fewer objects than PEs is not a meaningful run
			}
			s := Series{Label: fmt.Sprintf("%d objects", v)}
			for _, lat := range p.Fig3Latencies {
				res, err := simOn[stencil.Result](procs, lat, stencilProgram(p.Stencil, v), sim.Options{})
				if err != nil {
					return nil, fmt.Errorf("figure3 P=%d V=%d L=%v: %w", procs, v, lat, err)
				}
				s.X = append(s.X, lat)
				s.Y = append(s.Y, res.PerStep)
				progress(w, "figure3 P=%-2d V=%-4d L=%-5v  %8.3f ms/step\n", procs, v, lat, ms(res.PerStep))
			}
			sub.Series = append(sub.Series, s)
		}
		fig.Plots = append(fig.Plots, sub)
	}
	return fig, nil
}

// Figure4 regenerates the paper's Figure 4: LeanMD per-step time as a
// function of latency, one curve per processor count.
func Figure4(w io.Writer, p Profile) (*Figure, error) {
	fig := &Figure{
		Title: fmt.Sprintf("Figure 4: LeanMD (%d cells, %d cell-pairs), per-step time (ms) vs one-way latency",
			p.MD.NX*p.MD.NY*p.MD.NZ, pairCount(p.MD)),
		XName: "latency",
	}
	sub := SubPlot{Title: "all processor counts"}
	for _, procs := range figure4Procs() {
		s := Series{Label: fmt.Sprintf("%d processors", procs)}
		for _, lat := range p.Fig4Latencies {
			res, err := simOn[leanmd.Result](procs, lat, mdProgram(p.MD), sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("figure4 P=%d L=%v: %w", procs, lat, err)
			}
			s.X = append(s.X, lat)
			s.Y = append(s.Y, res.PerStep)
			progress(w, "figure4 P=%-2d L=%-5v  %8.1f ms/step\n", procs, lat, ms(res.PerStep))
		}
		sub.Series = append(sub.Series, s)
	}
	fig.Plots = append(fig.Plots, sub)
	return fig, nil
}

// Table1 regenerates the paper's Table 1 comparison for the stencil:
// per-step times under "artificial latency" versus a "real" deployment.
// Three instruments are reported (DESIGN.md §5): the virtual-time engine
// at the TeraGrid latency (paper-scale artificial column), the real-time
// runtime with the in-process delay device, and the real-time runtime
// split over two OS-level TCP endpoints. The latter two are wall-clock on
// the host machine and validate each other the way the paper's two
// columns do.
func Table1(w io.Writer, p Profile, skipRealtime bool) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 1: stencil %dx%d at %.3f ms one-way latency (ms/step)",
			p.Stencil.Width, p.Stencil.Height, ms(p.RealLatency)),
		Header: []string{"Procs", "Objects", "Sim (Itanium model)", "Host delay-device", "Host TCP", "TCP/delay"},
	}
	for _, row := range table1Rows() {
		mk := stencilProgram(p.Stencil, row.Objects)
		simTr, simFlush := p.traceSimRun(fmt.Sprintf("table1_sim_p%d_v%d", row.Procs, row.Objects), row.Procs)
		simRes, err := simOn[stencil.Result](row.Procs, p.RealLatency, mk, sim.Options{Trace: simTr})
		if err != nil {
			return nil, fmt.Errorf("table1 sim P=%d V=%d: %w", row.Procs, row.Objects, err)
		}
		simFlush()
		cells := []string{
			fmt.Sprintf("%d", row.Procs),
			fmt.Sprintf("%d", row.Objects),
			fmt.Sprintf("%.3f", ms(simRes.PerStep)),
		}
		host := []string{"-", "-", "-"}
		if !skipRealtime {
			host, err = hostCells(p, fmt.Sprintf("table1_%%s_p%d_v%d", row.Procs, row.Objects), row.Procs, mk,
				func(r *stencil.Result) time.Duration { return r.PerStep })
			if err != nil {
				return nil, err
			}
		}
		cells = append(cells, host...)
		t.Rows = append(t.Rows, cells)
		progress(w, "table1 P=%-2d V=%-4d done\n", row.Procs, row.Objects)
	}
	return t, nil
}

// Table2 regenerates the paper's Table 2 for LeanMD, with the same three
// instruments as Table1.
func Table2(w io.Writer, p Profile, skipRealtime bool) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table 2: LeanMD at %.3f ms one-way latency (ms/step)", ms(p.RealLatency)),
		Header: []string{"Procs", "Sim (Itanium model)", "Host delay-device", "Host TCP", "TCP/delay"},
	}
	mk := mdProgram(p.MD)
	for _, procs := range figure4Procs() {
		simTr, simFlush := p.traceSimRun(fmt.Sprintf("table2_sim_p%d", procs), procs)
		simRes, err := simOn[leanmd.Result](procs, p.RealLatency, mk, sim.Options{Trace: simTr})
		if err != nil {
			return nil, fmt.Errorf("table2 sim P=%d: %w", procs, err)
		}
		simFlush()
		cells := []string{
			fmt.Sprintf("%d", procs),
			fmt.Sprintf("%.1f", ms(simRes.PerStep)),
		}
		host := []string{"-", "-", "-"}
		if !skipRealtime {
			host, err = hostCells(p, fmt.Sprintf("table2_%%s_p%d", procs), procs, mk,
				func(r *leanmd.Result) time.Duration { return r.PerStep })
			if err != nil {
				return nil, err
			}
		}
		cells = append(cells, host...)
		t.Rows = append(t.Rows, cells)
		progress(w, "table2 P=%-2d done\n", procs)
	}
	return t, nil
}

// hostCells runs mk in real time on one node, where the delay device is
// the only wide area, and on two TCP-joined nodes, and formats the two
// per-step times and their ratio: the host columns of Tables 1 and 2.
// name is the runs' trace name with a %s for "rt" or "tcp".
func hostCells[T any](p Profile, name string, procs int, mk func() (*core.Program, error), perStep func(*T) time.Duration) ([]string, error) {
	var d [2]time.Duration
	for i, col := range []string{"rt", "tcp"} {
		run := fmt.Sprintf(name, col)
		opts, flush := p.traceRun(run, procs)
		res, err := hostOn[T](procs, i+1, p.RealLatency, mk, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", run, err)
		}
		flush()
		d[i] = perStep(res)
	}
	return []string{fmt.Sprintf("%.3f", ms(d[0])), fmt.Sprintf("%.3f", ms(d[1])),
		fmt.Sprintf("%.2f", float64(d[1])/float64(d[0]))}, nil
}

// AblationGridLB compares load-balancing strategies on a stencil whose
// blocks start squeezed onto half of each cluster's PEs (a 2× load
// imbalance with good communication locality): none, the
// cluster-oblivious Greedy, and the paper's grid-aware balancer (which
// never migrates across the WAN).
func AblationGridLB(w io.Writer, p Profile) (*Table, error) {
	t := &Table{
		Title:  "Ablation: one LB round from a half-empty placement (stencil, ms/step)",
		Header: []string{"Procs", "Objects", "Latency", "none", "greedy", "grid"},
	}
	const procs, objects = 8, 256
	lat := 8 * time.Millisecond
	row, err := lbRow(procs, objects, lat, func(strategy core.Strategy) (time.Duration, error) {
		sp := balanced(p.Stencil, strategy)
		sp.InitialMap = squeezed(objects)
		res, err := simOn[stencil.Result](procs, lat, stencilProgram(sp, objects), sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.PerStep, nil
	}, nil, balance.Greedy{}, balance.Grid{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, row)
	progress(w, "ablation-gridlb done\n")
	return t, nil
}

// GridLBTCP is the two-process companion of AblationGridLB: the same
// half-empty placement (each cluster's blocks squeezed onto half its
// PEs), but hosted as two runtimes joined by real TCP sockets with the
// delay device supplying the WAN flight time, wall-clock measured. The
// balancing round itself runs over the wire — stats, evict/arrive PUP
// payloads, and resume all ride KindLB messages through the Reliable/TCP
// chain — so the table shows measurement-based balancing working in the
// actual N-process deployment, not just the virtual-time model.
func GridLBTCP(w io.Writer, p Profile) (*Table, error) {
	t := &Table{
		Title:  "Grid LB across two processes (stencil over real TCP, ms/step)",
		Header: []string{"Procs", "Objects", "Latency", "none", "grid"},
	}
	const procs, objects = 4, 64
	lat := 3 * time.Millisecond
	row, err := lbRow(procs, objects, lat, func(strategy core.Strategy) (time.Duration, error) {
		sp := balanced(p.Stencil, strategy)
		sp.InitialMap = squeezed(objects)
		res, err := hostOn[stencil.Result](procs, 2, lat, stencilProgram(sp, objects), p.rtOpts()...)
		if err != nil {
			return 0, err
		}
		return res.PerStep, nil
	}, nil, balance.Grid{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, row)
	progress(w, "gridlb-tcp done\n")
	return t, nil
}

// AblationHetero runs the stencil on a heterogeneous co-allocation —
// cluster 1's processors at half speed, as when one site's hardware is a
// generation older — and compares balancing strategies. The grid-aware
// balancer refuses to migrate across the WAN by design, so it can only
// even out load within each cluster; Greedy may trade WAN communication
// for load balance.
func AblationHetero(w io.Writer, p Profile) (*Table, error) {
	t := &Table{
		Title:  "Ablation: heterogeneous clusters (cluster 1 at 0.5x speed; stencil, ms/step)",
		Header: []string{"Procs", "Objects", "Latency", "none", "greedy", "grid"},
	}
	const procs, objects = 8, 256
	lat := 8 * time.Millisecond
	row, err := lbRow(procs, objects, lat, func(strategy core.Strategy) (time.Duration, error) {
		prog, err := stencilProgram(balanced(p.Stencil, strategy), objects)()
		if err != nil {
			return 0, err
		}
		topo, err := topology.TwoClusters(procs, lat)
		if err != nil {
			return 0, err
		}
		if err := topo.SetClusterSpeed(1, 0.5); err != nil {
			return 0, err
		}
		v, _, err := Sim(topo, prog, sim.Options{})
		if err != nil {
			return 0, err
		}
		return v.(*stencil.Result).PerStep, nil
	}, nil, balance.Greedy{}, balance.Grid{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, row)
	progress(w, "ablation-hetero done\n")
	return t, nil
}

// squeezed is the half-empty placement of objects blocks: the
// locality-preserving column mapping, but on every other PE, leaving
// half of each cluster idle.
func squeezed(objects int) func(i, numPE int) int {
	return func(i, numPE int) int {
		pe := core.BlockMap(i, objects, numPE)
		half := numPE / 2
		if pe < half {
			return pe / 2
		}
		return half + (pe-half)/2
	}
}

// balanced returns sp with one balancing round by strategy after step 2,
// timing only the post-balance phase; a nil strategy leaves sp as is.
func balanced(sp stencil.Params, strategy core.Strategy) stencil.Params {
	if strategy != nil {
		sp.LB, sp.LBAtStep = strategy, 2
		if sp.Warmup <= 2 {
			sp.Warmup = 3
		}
	}
	return sp
}

// lbRow formats one stencil configuration's row: its per-step time under
// each strategy in turn, nil meaning no balancing.
func lbRow(procs, objects int, lat time.Duration, run func(core.Strategy) (time.Duration, error), strategies ...core.Strategy) ([]string, error) {
	row := []string{fmt.Sprintf("%d", procs), fmt.Sprintf("%d", objects), lat.String()}
	for _, s := range strategies {
		d, err := run(s)
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.3f", ms(d)))
	}
	return row, nil
}

// Irregular demonstrates the paper's generality claim on an irregular
// mesh decomposition: the same runtime masks latency with no
// application-specific support, and higher virtualization extends the
// flat region, exactly as for the regular stencil.
func Irregular(w io.Writer, p Profile) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Generality: irregular-mesh relaxation, %d vertices on 8 processors (ms/step)", p.IrregularVertices),
		Header: []string{"Latency", "8 chunks", "64 chunks", "256 chunks"},
	}
	const procs = 8
	run := func(chunks int, lat time.Duration) (time.Duration, error) {
		up := &unstruct.Params{
			Vertices: p.IrregularVertices, Degree: 6, Seed: 17,
			Chunks: chunks, Steps: 16, Warmup: 5,
			Model: unstruct.DefaultModel(),
		}
		res, err := simOn[unstruct.Result](procs, lat,
			func() (*core.Program, error) { return unstruct.BuildProgram(up) }, sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.PerStep, nil
	}
	for _, lat := range []time.Duration{0, time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
		row := []string{lat.String()}
		for _, chunks := range []int{8, 64, 256} {
			v, err := run(chunks, lat)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", ms(v)))
		}
		t.Rows = append(t.Rows, row)
		progress(w, "irregular L=%v done\n", lat)
	}
	return t, nil
}

// SDSC runs the paper's §6 first future-work item: the same applications
// at the NCSA–SDSC one-way latency of 29.37 ms. The paper predicts that
// "example codes such as the five-point stencil running over a 2048x2048
// mesh will experience severe performance penalties" while codes "with
// larger per-step execution times should be able to run successfully".
func SDSC(w io.Writer, p Profile) (*Table, error) {
	const sdscLatency = 29370 * time.Microsecond
	t := &Table{
		Title:  "Future-work validation: NCSA-SDSC latency (29.37 ms one-way), ms/step",
		Header: []string{"Application", "Procs", "@1.725ms", "@29.37ms", "penalty"},
	}
	type cfg struct {
		name  string
		procs int
		run   func(lat time.Duration) (time.Duration, error)
	}
	var rows []cfg
	for _, procs := range []int{8, 32} {
		procs := procs
		rows = append(rows,
			cfg{"stencil V=256", procs, func(lat time.Duration) (time.Duration, error) {
				r, err := simOn[stencil.Result](procs, lat, stencilProgram(p.Stencil, 256), sim.Options{})
				if err != nil {
					return 0, err
				}
				return r.PerStep, nil
			}},
			cfg{"LeanMD", procs, func(lat time.Duration) (time.Duration, error) {
				r, err := simOn[leanmd.Result](procs, lat, mdProgram(p.MD), sim.Options{})
				if err != nil {
					return 0, err
				}
				return r.PerStep, nil
			}},
		)
	}
	for _, c := range rows {
		near, err := c.run(p.RealLatency)
		if err != nil {
			return nil, err
		}
		far, err := c.run(sdscLatency)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprintf("%d", c.procs),
			fmt.Sprintf("%.3f", ms(near)),
			fmt.Sprintf("%.3f", ms(far)),
			fmt.Sprintf("%.2fx", float64(far)/float64(near)),
		})
		progress(w, "sdsc %s P=%d done\n", c.name, c.procs)
	}
	return t, nil
}

// Classes quantifies the paper's §1 taxonomy: how each application class
// responds to wide-area latency. For each latency the table reports the
// slowdown relative to that class's own zero-latency time — the
// master-worker farm (coarse tasks, prefetch 4) should barely move, while
// the tightly-coupled applications bend once latency passes their
// overlappable work.
func Classes(w io.Writer, p Profile) (*Table, error) {
	t := &Table{
		Title:  "Application classes: slowdown vs own zero-latency baseline (8 processors)",
		Header: []string{"Latency", "stencil (V=64)", "LeanMD", "task farm"},
	}
	const procs = 8

	stencilAt := func(lat time.Duration) (time.Duration, error) {
		res, err := simOn[stencil.Result](procs, lat, stencilProgram(p.Stencil, 64), sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.PerStep, nil
	}
	mdAt := func(lat time.Duration) (time.Duration, error) {
		res, err := simOn[leanmd.Result](procs, lat, mdProgram(p.MD), sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.PerStep, nil
	}
	farmAt := func(lat time.Duration) (time.Duration, error) {
		res, err := simOn[taskfarm.Result](procs, lat, func() (*core.Program, error) {
			return taskfarm.BuildProgramFor(&taskfarm.Params{
				Tasks: 200, Prefetch: 4, TaskCost: 50 * time.Millisecond, TaskBytes: 2048,
				Shards: 1, Batch: 1, // the single master: one dispatcher, one task per grant
			}, procs)
		}, sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}

	base := make([]time.Duration, 3)
	for i, f := range []func(time.Duration) (time.Duration, error){stencilAt, mdAt, farmAt} {
		b, err := f(0)
		if err != nil {
			return nil, err
		}
		base[i] = b
	}
	for _, lat := range []time.Duration{time.Millisecond, 16 * time.Millisecond, 64 * time.Millisecond, 256 * time.Millisecond} {
		row := []string{lat.String()}
		for i, f := range []func(time.Duration) (time.Duration, error){stencilAt, mdAt, farmAt} {
			v, err := f(lat)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2fx", float64(v)/float64(base[i])))
		}
		t.Rows = append(t.Rows, row)
		progress(w, "classes L=%v done\n", lat)
	}
	return t, nil
}

// AblationVirtualization quantifies the pure overhead/benefit of the
// virtualization degree at zero latency (the §5.2 cache observation plus
// scheduling overhead at extreme degrees).
func AblationVirtualization(w io.Writer, p Profile) (*Table, error) {
	t := &Table{
		Title:  "Ablation: virtualization degree at zero latency (stencil, ms/step)",
		Header: []string{"Procs", "Objects", "ms/step"},
	}
	const procs = 8
	for _, v := range []int{16, 64, 256, 1024, 4096} {
		if v > p.Stencil.Width*p.Stencil.Height/64 {
			continue
		}
		res, err := simOn[stencil.Result](procs, 0, stencilProgram(p.Stencil, v), sim.Options{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", procs), fmt.Sprintf("%d", v),
			fmt.Sprintf("%.3f", ms(res.PerStep)),
		})
		progress(w, "ablation-virt V=%d done\n", v)
	}
	return t, nil
}

func pairCount(m leanmd.Params) int {
	nc := m.NX * m.NY * m.NZ
	// Periodic 26-neighbor pairs + self pairs (exact only when every axis
	// has >= 3 cells; the paper's 6×6×6 qualifies).
	return nc*26/2 + nc
}

func progress(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
