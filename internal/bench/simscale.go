package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

// The sim-scale experiment measures the virtual-time engine itself at
// the scales the paper's Grid scenarios imply — thousands of PEs and up
// to a million chares — along two axes:
//
//  1. Throughput: a token-wave workload (every hop crosses a PE
//     boundary, charged one intra-cluster link delay of model time and
//     a fixed amount of host CPU mixing) is swept over {sequential,
//     parallel×workers} at each PE count. The parallel engine must
//     reproduce the sequential checksum bit-for-bit at every point;
//     speedup is whatever the host's cores actually deliver, recorded
//     together with the core count so a single-core run is an honest
//     data point rather than a failed claim.
//  2. Memory: the big arm runs the same wave over Big.Chares elements
//     with Options.PackCold bounding each PE's live set. Chare state is
//     PUP-packed between events, so the heap must hold only the packed
//     essence (~tens of bytes per chare) plus the small live set — not
//     a million live chares with their working buffers.

// SimScaleConfig sizes the sim-scale experiment.
type SimScaleConfig struct {
	// PEs are the machine sizes swept; topologies come from the synthetic
	// generator (64-PE clusters with a seeded latency mesh between them).
	PEs []int
	// Workers are the parallel-engine worker counts swept per PE count.
	Workers []int
	// TokensPerPE seeds this many concurrent token waves per PE.
	TokensPerPE int
	// Rounds is the number of hops each token makes.
	Rounds int
	// CharesPerPE virtualizes the wave array in the throughput sweep.
	CharesPerPE int
	// Scratch is the per-chare working-buffer size in 8-byte words. The
	// buffer is rebuilt on hydration and never packed — the out-of-core
	// pattern the cold store exists for.
	Scratch int
	// HopCost is the model CPU time charged per hop.
	HopCost time.Duration
	// Spec, when non-empty, replaces the generated machine sweep with
	// this one synthetic topology (gridsim -topo); the PE count comes
	// from the spec itself.
	Spec string
	// Big is the bounded-memory arm.
	Big SimScaleBig
}

// SimScaleBig sizes the million-chare cold-store arm.
type SimScaleBig struct {
	Chares  int
	PEs     int
	Rounds  int
	PackCap int // live chares allowed per PE
	Workers int
	// HeapBoundBytes is the acceptance bound on heap growth (measured
	// via runtime.ReadMemStats after a forced GC, engine included).
	HeapBoundBytes int64
}

// SimScalePoint is one engine arm at one machine size.
type SimScalePoint struct {
	PEs          int     `json:"pes"`
	Chares       int     `json:"chares"`
	Engine       string  `json:"engine"` // "seq" or "parN"
	Workers      int     `json:"workers"`
	Shards       int     `json:"shards"`
	Events       int64   `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	VirtualMS    float64 `json:"virtual_ms"`
	Checksum     string  `json:"checksum"`
	Speedup      float64 `json:"speedup_vs_seq"`
}

// SimScaleBigReport is the cold-store arm's measurements.
type SimScaleBigReport struct {
	Chares          int     `json:"chares"`
	PEs             int     `json:"pes"`
	PackCap         int     `json:"pack_cap_per_pe"`
	Events          int64   `json:"events"`
	WallMS          float64 `json:"wall_ms"`
	Checksum        string  `json:"checksum"`
	ColdPacks       int64   `json:"cold_packs"`
	ColdHydrates    int64   `json:"cold_hydrates"`
	PackedPeakBytes int64   `json:"packed_peak_bytes"`
	HeapUsedBytes   int64   `json:"heap_used_bytes"`
	HeapBoundBytes  int64   `json:"heap_bound_bytes"`
	WithinBound     bool    `json:"within_bound"`
}

// SimScaleReport is the BENCH_simscale.json artifact.
type SimScaleReport struct {
	Description    string            `json:"description"`
	HostCores      int               `json:"host_cores"`
	GoMaxProcs     int               `json:"gomaxprocs"`
	TopoSpec       string            `json:"topo_spec"`
	LookaheadUS    float64           `json:"lookahead_us"`
	Windows        int64             `json:"windows"`
	TokensPerPE    int               `json:"tokens_per_pe"`
	Rounds         int               `json:"rounds"`
	HopCostUS      float64           `json:"hop_cost_us"`
	Sweep          []SimScalePoint   `json:"sweep"`
	SpeedupAt1024  float64           `json:"speedup_at_1024"`
	ChecksumsMatch bool              `json:"checksums_match"`
	Big            SimScaleBigReport `json:"big"`
}

// WriteJSON serializes the report.
func (r *SimScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// simScaleSpec is the generator spec for a machine of pes processors:
// 64-PE clusters joined by a seeded heterogeneous latency mesh. The
// parallel engine's shards are whole clusters, so its window is the
// mesh's shortest millisecond link, not the 10µs intra-cluster hop.
func simScaleSpec(pes int) string {
	if pes < 64 {
		return fmt.Sprintf("%dx1;wan=5ms", pes)
	}
	return fmt.Sprintf("%dx64;wan=5ms;mesh=rand:3:2ms:10ms", pes/64)
}

func simScaleTopo(pes int) (*topology.Topology, string, error) {
	return buildSpec(simScaleSpec(pes))
}

func buildSpec(spec string) (*topology.Topology, string, error) {
	s, err := topology.ParseSpec(spec)
	if err != nil {
		return nil, spec, err
	}
	topo, err := s.Build()
	return topo, spec, err
}

// waveToken is the message a wave passes along; hops count down to zero
// and the mixed value becomes part of the run checksum.
type waveToken struct {
	Hops int
	Val  uint64
}

// waveChare is one element of the wave array. Only idx, hits, and sum
// are PUP-packed; the scratch buffer is derived state, rebuilt by the
// constructor on hydration — so a packed chare costs ~32 bytes while a
// live one costs Scratch*8.
type waveChare struct {
	idx     int
	hits    int64
	sum     uint64
	scratch []uint64
	chares  int
	root    core.ElemRef
}

func (c *waveChare) PUP(p *core.PUP) {
	p.Int(&c.idx)
	p.Int64(&c.hits)
	p.Uint64(&c.sum)
}

func (c *waveChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	tok := data.(waveToken)
	v := tok.Val
	for _, s := range c.scratch {
		v = splitmix(v ^ s)
	}
	c.hits++
	c.sum += v
	ctx.Charge(waveHopCost)
	if tok.Hops > 0 {
		next := (c.idx + 1) % c.chares
		ctx.Send(core.ElemRef{Array: 0, Index: next}, 0, waveToken{Hops: tok.Hops - 1, Val: v})
		return
	}
	ctx.Send(c.root, 0, v)
}

// waveHopCost is set by waveProgram before any run; the engine is
// single-program-per-process here, and keeping it out of the packed
// state keeps the PUP essence minimal.
var waveHopCost time.Duration

// waveRoot collects one completion per seeded token and exits with the
// order-independent sum checksum.
type waveRoot struct {
	want  int
	count int
	sum   uint64
}

func (r *waveRoot) PUP(p *core.PUP) {
	p.Int(&r.want)
	p.Int(&r.count)
	p.Uint64(&r.sum)
}

func (r *waveRoot) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	r.sum += data.(uint64)
	r.count++
	if r.count == r.want {
		ctx.ExitWith(r.sum)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// waveProgram builds the token-wave workload: tokens seeded round-robin
// across the wave array (one chare per PE slot), each hopping stride-1
// for rounds hops, then reporting to a root on PE 0.
func waveProgram(chares, numPE, tokensPerPE, rounds, scratch int, hopCost time.Duration) *core.Program {
	waveHopCost = hopCost
	tokens := tokensPerPE * numPE
	if tokens > chares {
		tokens = chares
	}
	root := core.ElemRef{Array: 1, Index: 0}
	return &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: 0, N: chares,
				New: func(i int) core.Chare {
					c := &waveChare{idx: i, chares: chares, root: root, scratch: make([]uint64, scratch)}
					for j := range c.scratch {
						c.scratch[j] = splitmix(uint64(i)<<20 + uint64(j))
					}
					return c
				},
				Map: func(i, pes int) int { return i % pes },
			},
			{
				ID: 1, N: 1,
				New: func(i int) core.Chare { return &waveRoot{want: tokens} },
				Map: func(i, pes int) int { return 0 },
			},
		},
		Start: func(ctx *core.Ctx) {
			for t := 0; t < tokens; t++ {
				ctx.Send(core.ElemRef{Array: 0, Index: t}, 0, waveToken{Hops: rounds, Val: splitmix(uint64(t))})
			}
		},
	}
}

func runWave(topo *topology.Topology, prog *core.Program, opts sim.Options, workers int) (uint64, time.Duration, sim.Stats, time.Duration, error) {
	var e *sim.Engine
	var err error
	if workers == 0 {
		e, err = sim.New(topo, prog, opts)
	} else {
		e, err = sim.NewParallel(topo, prog, opts, workers)
	}
	if err != nil {
		return 0, 0, sim.Stats{}, 0, err
	}
	start := time.Now()
	v, vt, err := e.Run()
	wall := time.Since(start)
	if err != nil {
		return 0, 0, sim.Stats{}, 0, err
	}
	sum, ok := v.(uint64)
	if !ok {
		return 0, 0, sim.Stats{}, 0, fmt.Errorf("bench: wave exited with %T, want uint64", v)
	}
	return sum, vt, e.Stats(), wall, nil
}

// SimScale runs the scaling sweep and the cold-store arm.
func SimScale(w io.Writer, p Profile) (*Table, *SimScaleReport, error) {
	cfg := p.SimScale
	rep := &SimScaleReport{
		Description: "virtual-time engine scaling: sequential vs conservative-parallel event execution, " +
			"plus the PUP cold-store arm bounding memory for large chare counts",
		HostCores:   runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		TokensPerPE: cfg.TokensPerPE,
		Rounds:      cfg.Rounds,
		HopCostUS:   float64(cfg.HopCost) / float64(time.Microsecond),
	}
	rep.ChecksumsMatch = true
	tbl := &Table{
		Title:  "Engine scaling: token wave, events/second by machine size and engine",
		Header: []string{"PEs", "chares", "engine", "events", "wall", "ev/s", "speedup", "checksum ok"},
	}

	machines := make([]string, 0, len(cfg.PEs))
	if cfg.Spec != "" {
		machines = append(machines, cfg.Spec)
	} else {
		for _, pes := range cfg.PEs {
			machines = append(machines, simScaleSpec(pes))
		}
	}
	for _, machine := range machines {
		topo, spec, err := buildSpec(machine)
		if err != nil {
			return nil, nil, err
		}
		pes := topo.NumPE()
		if rep.TopoSpec == "" {
			rep.TopoSpec = spec
		}
		chares := pes * cfg.CharesPerPE
		arms := make([]int, 0, 1+len(cfg.Workers))
		arms = append(arms, 0)
		arms = append(arms, cfg.Workers...)
		var refSum uint64
		var refRate float64
		for _, workers := range arms {
			if w != nil {
				fmt.Fprintf(w, "[sim-scale pes=%d workers=%d]\n", pes, workers)
			}
			prog := waveProgram(chares, pes, cfg.TokensPerPE, cfg.Rounds, cfg.Scratch, cfg.HopCost)
			sum, vt, stats, wall, err := runWave(topo, prog, sim.Options{}, workers)
			if err != nil {
				return nil, nil, fmt.Errorf("sim-scale pes=%d workers=%d: %w", pes, workers, err)
			}
			pt := SimScalePoint{
				PEs: pes, Chares: chares, Workers: stats.Workers, Shards: stats.Shards,
				Events: stats.Events, WallMS: ms(wall),
				EventsPerSec: float64(stats.Events) / wall.Seconds(),
				VirtualMS:    ms(vt),
				Checksum:     fmt.Sprintf("%016x", sum),
			}
			if workers == 0 {
				pt.Engine = "seq"
				refSum, refRate = sum, pt.EventsPerSec
				pt.Speedup = 1
			} else {
				pt.Engine = fmt.Sprintf("par%d", workers)
				if rep.Windows == 0 {
					// The first machine's first parallel arm: the window
					// the engine actually used, and how many it ran.
					rep.LookaheadUS = float64(stats.Lookahead) / float64(time.Microsecond)
					rep.Windows = stats.Windows
				}
				pt.Speedup = pt.EventsPerSec / refRate
				if sum != refSum {
					rep.ChecksumsMatch = false
				}
				if pes == 1024 && pt.Speedup > rep.SpeedupAt1024 {
					rep.SpeedupAt1024 = pt.Speedup
				}
			}
			rep.Sweep = append(rep.Sweep, pt)
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprint(pes), fmt.Sprint(chares), pt.Engine,
				fmt.Sprint(pt.Events), wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", pt.EventsPerSec),
				fmt.Sprintf("%.2f", pt.Speedup),
				fmt.Sprint(sum == refSum),
			})
		}
	}

	big, err := simScaleBig(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep.Big = *big
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprint(big.PEs), fmt.Sprint(big.Chares), "par+cold",
		fmt.Sprint(big.Events), fmt.Sprintf("%.0fms", big.WallMS), "-", "-",
		fmt.Sprintf("heap %dMB<=%dMB %v", big.HeapUsedBytes>>20, big.HeapBoundBytes>>20, big.WithinBound),
	})
	return tbl, rep, nil
}

// simScaleBig runs the bounded-memory arm: Big.Chares wave elements with
// PackCold keeping only Big.PackCap live per PE. Heap growth is measured
// engine-and-all against a post-GC baseline, because the claim is "a
// million chares fit", not "a million chares minus the runtime fits".
func simScaleBig(w io.Writer, cfg SimScaleConfig) (*SimScaleBigReport, error) {
	big := cfg.Big
	if w != nil {
		fmt.Fprintf(w, "[sim-scale big chares=%d pack-cap=%d]\n", big.Chares, big.PackCap)
	}
	topo, _, err := simScaleTopo(big.PEs)
	if err != nil {
		return nil, err
	}
	baseline := heapInUse()
	prog := waveProgram(big.Chares, big.PEs, 1, big.Rounds, cfg.Scratch, cfg.HopCost)
	opts := sim.Options{PackCold: big.PackCap}
	e, err := sim.NewParallel(topo, prog, opts, big.Workers)
	if err != nil {
		return nil, err
	}
	afterBuild := heapInUse()
	start := time.Now()
	v, _, err := e.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	afterRun := heapInUse()
	used := afterBuild - baseline
	if r := afterRun - baseline; r > used {
		used = r
	}
	stats := e.Stats()
	rep := &SimScaleBigReport{
		Chares: big.Chares, PEs: big.PEs, PackCap: big.PackCap,
		Events: stats.Events, WallMS: ms(wall),
		Checksum:        fmt.Sprintf("%016x", v.(uint64)),
		ColdPacks:       stats.ColdPacks,
		ColdHydrates:    stats.ColdHydrates,
		PackedPeakBytes: stats.ColdBytes,
		HeapUsedBytes:   used,
		HeapBoundBytes:  big.HeapBoundBytes,
		WithinBound:     used <= big.HeapBoundBytes,
	}
	runtime.KeepAlive(e)
	return rep, nil
}

// heapInUse forces a GC and reports live heap bytes.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
