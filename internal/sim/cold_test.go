package sim

import (
	"runtime"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// waveChare is one element of a token-wave array. Only idx, hits and sum
// are PUP-packed; scratch is derived state the constructor rebuilds on
// hydration, so a packed chare costs a few dozen bytes while a live one
// costs len(scratch)*8.
type waveChare struct {
	idx, n  int
	hits    int64
	sum     uint64
	scratch []uint64
}

func newWaveChare(i, n, scratch int) *waveChare {
	c := &waveChare{idx: i, n: n, scratch: make([]uint64, scratch)}
	for j := range c.scratch {
		c.scratch[j] = mix(uint64(i)<<20 + uint64(j))
	}
	return c
}

func (c *waveChare) PUP(p *core.PUP) {
	p.Int(&c.idx)
	p.Int64(&c.hits)
	p.Uint64(&c.sum)
}

// Recv folds the scratch buffer into the token and passes it on; a token
// with no hops left reports to the root.
func (c *waveChare) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	tok := data.([2]uint64) // hops left, value
	v := tok[1]
	for _, s := range c.scratch {
		v = mix(v ^ s)
	}
	c.hits++
	c.sum += v
	ctx.Charge(10 * time.Microsecond)
	if tok[0] > 0 {
		ctx.Send(core.ElemRef{Array: 0, Index: (c.idx + 1) % c.n}, 0, [2]uint64{tok[0] - 1, v})
		return
	}
	ctx.Send(core.ElemRef{Array: 1}, 0, v)
}

// waveRoot exits with the sum of want token completions.
type waveRoot struct {
	want, count int
	sum         uint64
}

func (r *waveRoot) PUP(p *core.PUP) {
	p.Int(&r.want)
	p.Int(&r.count)
	p.Uint64(&r.sum)
}

func (r *waveRoot) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	r.sum += data.(uint64)
	if r.count++; r.count == r.want {
		ctx.ExitWith(r.sum)
	}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// waveProgram seeds one token per PE into a chares-element wave array
// placed round-robin over the PEs; each token hops rounds times.
func waveProgram(chares, numPE, rounds, scratch int) *core.Program {
	return &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: 0, N: chares,
				New: func(i int) core.Chare { return newWaveChare(i, chares, scratch) },
				Map: func(i, pes int) int { return i % pes },
			},
			{
				ID: 1, N: 1,
				New: func(int) core.Chare { return &waveRoot{want: numPE} },
				Map: func(int, int) int { return 0 },
			},
		},
		Start: func(ctx *core.Ctx) {
			for t := 0; t < numPE; t++ {
				ctx.Send(core.ElemRef{Array: 0, Index: t}, 0, [2]uint64{uint64(rounds), mix(uint64(t))})
			}
		},
	}
}

// heapInUse forces a GC and reports live heap bytes.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestColdStoreBoundsHeap: with PackCold, a wave of 2^16 chares that
// each derive a 512-word scratch buffer (256 MiB if all were live) must
// run on the parallel engine in at most a quarter of that. Heap growth
// is measured engine and all against a post-GC baseline, after
// construction and after the run. Result equality under PackCold is
// TestParallelConformanceColdState's job.
func TestColdStoreBoundsHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates up to tens of MiB; skipped in -short")
	}
	const chares, scratch, pes = 1 << 16, 512, 64
	const bound = chares * scratch * 8 / 4
	topo, err := topology.New([]int{pes / 2, pes / 2}, topology.WithInterLatency(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := heapInUse()
	e, err := NewParallel(topo, waveProgram(chares, pes, 32, scratch), Options{PackCold: 32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	used := heapInUse() - base
	if _, _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r := heapInUse() - base; r > used {
		used = r
	}
	st := e.Stats()
	runtime.KeepAlive(e)
	if used > bound {
		t.Errorf("heap grew %d MiB, bound %d MiB", used>>20, int64(bound)>>20)
	}
	if st.ColdPacks == 0 {
		t.Error("cold store enabled but never packed")
	}
	t.Logf("heap %.1f MiB of %d MiB bound; %d packs, %d hydrates, %d events",
		float64(used)/(1<<20), bound>>20, st.ColdPacks, st.ColdHydrates, st.Events)
}
