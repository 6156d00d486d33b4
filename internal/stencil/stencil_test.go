package stencil

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

func TestSpanExactCover(t *testing.T) {
	prop := func(n16, k16 uint16) bool {
		n := int(n16%5000) + 1
		k := int(k16%64) + 1
		if k > n {
			k = n
		}
		next := 0
		total := 0
		for i := 0; i < k; i++ {
			off, size := span(n, k, i)
			if off != next || size <= 0 {
				return false
			}
			next = off + size
			total += size
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSide(t *testing.T) {
	for _, v := range []int{4, 16, 64, 256, 1024} {
		r, err := Side(v)
		if err != nil || r*r != v {
			t.Errorf("Side(%d) = %d, %v", v, r, err)
		}
	}
	if _, err := Side(5); err == nil {
		t.Error("Side(5) accepted")
	}
}

func TestBlockIndexRoundTrip(t *testing.T) {
	p := &Params{Width: 64, Height: 64, VX: 5, VY: 7, Steps: 1}
	seen := make(map[int]bool)
	for bx := 0; bx < p.VX; bx++ {
		for by := 0; by < p.VY; by++ {
			i := p.blockIndex(bx, by)
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
			gx, gy := p.blockCoords(i)
			if gx != bx || gy != by {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", bx, by, i, gx, gy)
			}
		}
	}
	if len(seen) != p.NumObjects() {
		t.Fatalf("covered %d indices, want %d", len(seen), p.NumObjects())
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{Width: 32, Height: 32, VX: 4, VY: 4, Steps: 3, Warmup: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad := []Params{
		{Width: 2, Height: 32, VX: 1, VY: 1, Steps: 1},
		{Width: 32, Height: 32, VX: 0, VY: 1, Steps: 1},
		{Width: 32, Height: 32, VX: 64, VY: 1, Steps: 1},
		{Width: 32, Height: 32, VX: 1, VY: 1, Steps: 0},
		{Width: 32, Height: 32, VX: 1, VY: 1, Steps: 2, Warmup: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// collectGrid reassembles block outputs into a full mesh.
type collectGrid struct {
	mu   sync.Mutex
	grid []float64
	w    int
}

func newCollect(w, h int) *collectGrid {
	return &collectGrid{grid: make([]float64, w*h), w: w}
}

func (c *collectGrid) fn(bx, by, x0, y0, w, h int, vals []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for y := 0; y < h; y++ {
		copy(c.grid[(y0+y)*c.w+x0:(y0+y)*c.w+x0+w], vals[y*w:(y+1)*w])
	}
}

func runSim(t *testing.T, p *Params, procs int, lat time.Duration) *Result {
	t.Helper()
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var topo *topology.Topology
	if procs == 1 {
		topo, err = topology.Single(1)
	} else {
		topo, err = topology.TwoClusters(procs, lat)
	}
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
	return v.(*Result)
}

func TestSimMatchesSequentialBitwise(t *testing.T) {
	const W, H, steps = 32, 24, 7
	for _, tc := range []struct {
		vx, vy, procs int
		lat           time.Duration
	}{
		{1, 1, 1, 0},
		{4, 3, 1, 0},
		{4, 3, 4, 5 * time.Millisecond},
		{8, 8, 2, 2 * time.Millisecond},
	} {
		c := newCollect(W, H)
		p := &Params{Width: W, Height: H, VX: tc.vx, VY: tc.vy, Steps: steps, Collect: c.fn}
		res := runSim(t, p, tc.procs, tc.lat)
		want := RunSequential(W, H, steps)
		for i := range want {
			if c.grid[i] != want[i] {
				t.Fatalf("v=%dx%d p=%d: grid[%d] = %v, want %v (bitwise)",
					tc.vx, tc.vy, tc.procs, i, c.grid[i], want[i])
			}
		}
		if rel := math.Abs(res.Checksum-Checksum(want)) / math.Abs(Checksum(want)); rel > 1e-12 {
			t.Errorf("checksum relative error %v", rel)
		}
	}
}

// kickBytes is a kick payload with a modeled wire size; EntryKick ignores
// its data, so only the link model reads it.
type kickBytes int

func (k kickBytes) PayloadBytes() int { return int(k) }

// TestGhostsBeforeKick delivers a block both neighbours' step-0 ghosts
// before its own kick — the order that stopped two-node runs about once in
// 600 when the kicks crossed to the other node frame by frame. In virtual
// time the late kick is a large one: the middle block sits alone on the
// second PE and its kick is sized to spend seconds on the link, while the
// outer blocks, kicked at once, send it their borders in microseconds. A
// block that advanced on the ghosts alone never sent its step-0 borders,
// and the run ended with nothing in flight and no result.
func TestGhostsBeforeKick(t *testing.T) {
	const W, H, steps = 24, 8, 5
	c := newCollect(W, H)
	p := &Params{Width: W, Height: H, VX: 3, VY: 1, Steps: steps, Collect: c.fn,
		InitialMap: func(i, _ int) int { return i % 2 }}
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	prog.Start = func(ctx *core.Ctx) {
		ctx.Send(core.ElemRef{Array: 0, Index: 0}, EntryKick, nil)
		ctx.Send(core.ElemRef{Array: 0, Index: 2}, EntryKick, nil)
		ctx.Send(core.ElemRef{Array: 0, Index: 1}, EntryKick, kickBytes(1<<30))
	}
	topo, err := topology.Single(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(topo, prog, sim.Options{MaxEvents: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(*Result); !ok {
		t.Fatalf("run ended with %v: every block waiting, nothing in flight", v)
	}
	want := RunSequential(W, H, steps)
	for i := range want {
		if c.grid[i] != want[i] {
			t.Fatalf("grid[%d] = %v, want %v (bitwise)", i, c.grid[i], want[i])
		}
	}
}

func TestRealtimeMatchesSequential(t *testing.T) {
	const W, H, steps = 24, 24, 5
	c := newCollect(W, H)
	p := &Params{Width: W, Height: H, VX: 4, VY: 4, Steps: steps, Collect: c.fn}
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(4, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := v.(*Result)
	want := RunSequential(W, H, steps)
	for i := range want {
		if c.grid[i] != want[i] {
			t.Fatalf("grid[%d] = %v, want %v", i, c.grid[i], want[i])
		}
	}
	if res.Total <= 0 || res.PerStep <= 0 {
		t.Errorf("timing not recorded: %+v", res)
	}
}

// TestVirtualizationImprovesLatencyTolerance is the paper's headline
// claim in miniature: at a WAN latency comparable to the per-step compute
// time, higher virtualization yields a lower per-step time.
func TestVirtualizationImprovesLatencyTolerance(t *testing.T) {
	const W, H, steps, warmup = 256, 256, 24, 8
	const lat = 4 * time.Millisecond
	model := DefaultModel()
	run := func(v int) time.Duration {
		p := &Params{Width: W, Height: H, VX: v, VY: v, Steps: steps, Warmup: warmup, Model: model}
		res := runSim(t, p, 4, lat)
		return res.PerStep
	}
	low := run(2)  // 4 objects on 4 PEs: no overlap material
	high := run(8) // 64 objects on 4 PEs
	if high >= low {
		t.Errorf("virtualization did not help: V=64 %v >= V=4 %v at latency %v", high, low, lat)
	}
	// With 4 objects on 4 PEs every object borders the WAN; per-step time
	// must be at least the one-way latency.
	if low < lat {
		t.Errorf("V=4 per-step %v below one-way latency %v: impossible", low, lat)
	}
}

// TestLatencySweepShape: per-step time is (a) non-decreasing in latency
// and (b) flat (within tolerance) while latency is small relative to
// compute, for a well-virtualized configuration.
func TestLatencySweepShape(t *testing.T) {
	const W, H, steps, warmup = 256, 256, 20, 6
	model := DefaultModel()
	perStep := func(lat time.Duration) time.Duration {
		p := &Params{Width: W, Height: H, VX: 8, VY: 8, Steps: steps, Warmup: warmup, Model: model}
		return runSim(t, p, 4, lat).PerStep
	}
	base := perStep(0)
	if base <= 0 {
		t.Fatal("zero baseline")
	}
	small := perStep(100 * time.Microsecond)
	if float64(small) > 1.25*float64(base) {
		t.Errorf("small latency not masked: %v vs baseline %v", small, base)
	}
	big := perStep(64 * time.Millisecond)
	if big < small {
		t.Errorf("per-step time decreased with latency: %v < %v", big, small)
	}
	if big < 10*time.Millisecond {
		t.Errorf("64ms latency fully hidden on 64 objects/4 PEs: %v — delay wave model broken", big)
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultModel()
	small := m.BlockCost(64, 64)
	big := m.BlockCost(1024, 1024)
	if small <= 0 || big <= 0 {
		t.Fatal("non-positive cost")
	}
	// Per-cell cost must be higher for the cache-thrashing block.
	perSmall := float64(small) / (64 * 64)
	perBig := float64(big) / (1024 * 1024)
	if perBig <= perSmall {
		t.Errorf("cache penalty missing: %v ns/cell (big) <= %v ns/cell (small)", perBig, perSmall)
	}
	if f := m.cacheFactor(1); f != 1 {
		t.Errorf("tiny working set factor = %v", f)
	}
	if f := m.cacheFactor(1 << 30); f != m.MaxPenalty {
		t.Errorf("huge working set factor = %v, want %v", f, m.MaxPenalty)
	}
	// Monotone in working set.
	prev := 0.0
	for ws := 1 << 10; ws <= 1<<26; ws *= 2 {
		f := m.cacheFactor(ws)
		if f < prev {
			t.Fatalf("cacheFactor not monotone at %d", ws)
		}
		prev = f
	}
}

func TestGhostMsgSizer(t *testing.T) {
	g := ghostMsg{Vals: make([]float64, 256)}
	if g.PayloadBytes() != 16+8*256 {
		t.Errorf("PayloadBytes = %d", g.PayloadBytes())
	}
}

// TestGhostMsgWire: a ghost crosses the wire as its registered PUP
// traversal, comes back as a ghostMsg value, and costs no more than the
// bare []float64 of its values plus 24 bytes.
func TestGhostMsgWire(t *testing.T) {
	in := ghostMsg{Dir: 3, Step: 1 << 20, Vals: make([]float64, 96)}
	for i := range in.Vals {
		in.Vals[i] = math.Sqrt(float64(i))
	}
	enc, err := core.AppendMessage(nil, &core.Message{Kind: core.KindApp, Data: in})
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Data, in) {
		t.Errorf("ghost came back as %#v", out.Data)
	}
	bare, err := core.AppendMessage(nil, &core.Message{Kind: core.KindApp, Data: in.Vals})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(bare)+24 {
		t.Errorf("96-value ghost is %d bytes, its []float64 %d", len(enc), len(bare))
	}
}

// initAt is the initial condition evaluated per cell: the reference the
// separable fill must match bit for bit.
func initAt(x, y int) float64 {
	return math.Sin(float64(x)*0.013) + math.Cos(float64(y)*0.017)
}

// TestInitialRingMatchesInitBitwise: the separable fill gives every block
// cell, ghost ring included, exactly the per-cell value at its mesh
// coordinate, clamped at the mesh edge; and the sequential reference
// starts from the same values.
func TestInitialRingMatchesInitBitwise(t *testing.T) {
	p := &Params{Width: 37, Height: 23, VX: 3, VY: 4, Steps: 1}
	for idx := 0; idx < p.NumObjects(); idx++ {
		b := newBlock(p, idx)
		stride := b.w + 2
		for gy := 0; gy < b.h+2; gy++ {
			for gx := 0; gx < stride; gx++ {
				x := clamp(b.x0+gx-1, 0, p.Width-1)
				y := clamp(b.y0+gy-1, 0, p.Height-1)
				got, want := b.cur[gy*stride+gx], initAt(x, y)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("block %d ring cell (%d,%d) = %v, initAt(%d,%d) = %v", idx, gx, gy, got, x, y, want)
				}
			}
		}
	}
	seq := RunSequential(p.Width, p.Height, 0)
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			if got, want := seq[y*p.Width+x], initAt(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sequential cell (%d,%d) = %v, initAt = %v", x, y, got, want)
			}
		}
	}
}

// TestThinBlocksMatchSequentialBitwise: blocks one cell wide or high,
// where a row's only cell is on the mesh edge or its interior run is a
// single cell, update exactly as the sequential reference does.
func TestThinBlocksMatchSequentialBitwise(t *testing.T) {
	const W, H, steps = 5, 4, 3
	for _, v := range [][2]int{{5, 4}, {5, 1}, {1, 4}, {2, 3}} {
		c := newCollect(W, H)
		p := &Params{Width: W, Height: H, VX: v[0], VY: v[1], Steps: steps, Collect: c.fn}
		runSim(t, p, 2, time.Millisecond)
		want := RunSequential(W, H, steps)
		for i := range want {
			if c.grid[i] != want[i] {
				t.Fatalf("v=%dx%d: grid[%d] = %v, want %v (bitwise)", v[0], v[1], i, c.grid[i], want[i])
			}
		}
	}
}
