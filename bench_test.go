// Package gridmdo_bench holds the top-level testing.B micro-benchmarks of
// the runtime's hot paths: the PE queue, the frame and message codecs,
// the delay device, the LeanMD force kernel and the virtual-time event
// loop.
//
// The paper's tables and figures are regenerated by cmd/gridsim, and
// their virtual-time runs are pinned by its golden CSVs; the end-to-end
// benchmark lives in benchmark/.
package gridmdo_bench

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"

	// Imported for their message codecs, which BenchmarkWirePayloadKinds
	// decodes.
	_ "gridmdo/internal/stencil"
	_ "gridmdo/internal/taskfarm"
)

func BenchmarkQueuePushPop(b *testing.B) {
	// The virtual-time executor's queue: the unsynchronized FIFO, drained
	// by single pops.
	var q core.MsgQueue
	m := &core.Message{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(m)
		if i%8 == 7 {
			for q.Pop() != nil {
			}
		}
	}
}

func BenchmarkQueuePushPopBatch(b *testing.B) {
	// The real-time scheduler's drain pattern: bursts of pushes emptied
	// through PopBatch under one lock acquisition.
	q := core.NewQueue()
	batch := make([]*core.Message, 0, 32)
	m := &core.Message{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(m)
		if i%8 == 7 {
			for q.Len() > 0 {
				batch = q.PopBatch(batch[:0])
			}
		}
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	// The transport hot path: append-encode into a reused coalescing
	// buffer, zero-copy decode out of a reused reader buffer.
	body := bytes.Repeat([]byte("ghost row data  "), 128) // 2 KiB
	f := &vmi.Frame{Src: 1, Dst: 2, Body: body}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.AppendEncode(buf[:0])
		var g vmi.Frame
		if _, err := g.DecodeBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// appPayload builds a value of one of the applications' message types,
// which this package cannot name, by decoding a body laid out by hand
// after the type's tag: signed fields are zig-zag varints, counts are
// uvarints, floats are 8 bytes big-endian (DESIGN.md has the tag table).
func appPayload(b *testing.B, tag byte, body []byte) any {
	frame, err := core.AppendMessage(nil, &core.Message{Kind: core.KindApp})
	if err != nil {
		b.Fatal(err)
	}
	frame[len(frame)-1] = tag
	m, err := core.DecodeMessage(append(frame, body...))
	if err != nil {
		b.Fatal(err)
	}
	return m.Data
}

// f64Body appends n floats, 8 bytes each.
func f64Body(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(i)*0.5))
	}
	return dst
}

// BenchmarkWirePayloadKinds measures the message codec per payload kind —
// the primitive built-ins, the runtime's own protocol messages, and the
// applications' hot messages (a 96-value stencil ghost, a 12-atom LeanMD
// coordinate multicast, a one-range 64-task farm grant) — over the same
// append-encode/decode cycle the TCP send path runs.
func BenchmarkWirePayloadKinds(b *testing.B) {
	f64s := make([]float64, 256) // a 2 KiB ghost row
	for i := range f64s {
		f64s[i] = float64(i) * 0.5
	}
	bundle := core.MakeBundle([]*core.Message{
		{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 1}, Data: f64s[:32], Bytes: 256},
		{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 2}, Data: f64s[:32], Bytes: 256},
		{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 3}, Data: f64s[:32], Bytes: 256},
		{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 4}, Data: f64s[:32], Bytes: 256},
	})
	cases := []struct {
		name string
		data any
	}{
		{"nil", nil},
		{"int", 42},
		{"int64", int64(1) << 40},
		{"float64", 3.14},
		{"f64slice-2KiB", f64s},
		{"string", "resume-from-sync"},
		{"bytes-2KiB", bytes.Repeat([]byte{0xAB}, 2048)},
		{"reducepartial", core.ReducePartial{Array: 1, Seq: 9, Op: core.OpSum, Value: 1.5, Contribs: 32}},
		{"bundle-4msgs", bundle.Data},
		// stencil.ghostMsg{Dir: 1, Step: 5, Vals: 96 floats}
		{"ghost-96", appPayload(b, 80, f64Body([]byte{2, 10, 96}, 96))},
		// leanmd.coordMsg{From: 3, Step: 5, Pos: 12 atoms}
		{"coord-12", appPayload(b, 84, f64Body([]byte{6, 10, 12}, 36))},
		// taskfarm.taskBatchMsg{Shard: 3, bytes: 4096, Ranges: {{Lo: 1000, N: 64}}}
		{"taskbatch-1range", appPayload(b, 64, []byte{6, 0x80, 0x20, 1, 0xD0, 0x0F, 64})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: 1, Index: 2}, Data: tc.data}
			buf := make([]byte, 0, 8192)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = core.AppendMessage(buf[:0], m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.DecodeMessage(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "wire-bytes")
		})
	}
}

func BenchmarkDelayDeviceZeroLatency(b *testing.B) {
	d := vmi.NewDelayDevice(func(src, dst int32) time.Duration { return 0 })
	defer d.Close()
	sink := func(*vmi.Frame) error { return nil }
	f := &vmi.Frame{Src: 0, Dst: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Send(f, sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForceKernel(b *testing.B) {
	p := leanmd.DefaultParams()
	p.AtomsPerCell = 32
	g, err := leanmd.NewGeometry(3, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	ff := p.Field()
	s := leanmd.BuildSystem(p, g)
	n := p.AtomsPerCell
	fa := make([]leanmd.Vec3, n)
	fb := make([]leanmd.Vec3, n)
	q := p.Charges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range fa {
			fa[j], fb[j] = leanmd.Vec3{}, leanmd.Vec3{}
		}
		ff.CellInteraction(s.Pos[:n], s.Pos[n:2*n], q, q, fa, fb)
	}
	b.ReportMetric(float64(n*n), "interactions/op")
}

// BenchmarkSimEventLoop measures raw engine throughput on the token wave
// internal/sim's TestParallelWindowsFollowClusters pins: 16 clusters of 64
// PEs on a 2–10 ms mesh, 4 chares and 2 tokens per PE, 100 hops of 10 µs,
// 417,794 events — enough pending events that the event queue, not the
// handler, is what it times. Both engines run it; the parallel one with
// two workers.
func BenchmarkSimEventLoop(b *testing.B) {
	spec, err := topology.ParseSpec("16x64;wan=5ms;mesh=rand:1:2ms:10ms")
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []struct {
		name    string
		workers int
	}{{"sequential", 0}, {"parallel", 2}} {
		b.Run(eng.name, func(b *testing.B) {
			var events int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				topo, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				prog := waveProgram(topo.NumPE(), 4, 2, 100, 10*time.Microsecond)
				var e *sim.Engine
				if eng.workers == 0 {
					e, err = sim.New(topo, prog, sim.Options{})
				} else {
					e, err = sim.NewParallel(topo, prog, sim.Options{}, eng.workers)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
				events += e.Stats().Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

type waveToken struct {
	hops int
	val  uint64
}

// waveChare forwards a token to the next chare of the ring, charging
// hopCost per hop, until its hops run out; then it reports to the root.
type waveChare struct {
	idx, chares int
	hopCost     time.Duration
}

func (c *waveChare) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	tok := data.(waveToken)
	tok.val = tok.val*31 + uint64(c.idx)
	ctx.Charge(c.hopCost)
	if tok.hops == 0 {
		ctx.Send(core.ElemRef{Array: 1, Index: 0}, 0, tok.val)
		return
	}
	tok.hops--
	ctx.Send(core.ElemRef{Array: 0, Index: (c.idx + 1) % c.chares}, 0, tok)
}

// waveRoot exits once every token has reported.
type waveRoot struct{ want, count int }

func (r *waveRoot) Recv(ctx *core.Ctx, _ core.EntryID, _ any) {
	if r.count++; r.count == r.want {
		ctx.Exit()
	}
}

// waveProgram spreads charesPerPE chares over every PE and starts
// tokensPerPE tokens per PE, each making hops hops round the ring.
func waveProgram(numPE, charesPerPE, tokensPerPE, hops int, hopCost time.Duration) *core.Program {
	chares, tokens := charesPerPE*numPE, tokensPerPE*numPE
	return &core.Program{
		Arrays: []core.ArraySpec{
			{
				ID: 0, N: chares,
				New: func(i int) core.Chare { return &waveChare{idx: i, chares: chares, hopCost: hopCost} },
				Map: func(i, pes int) int { return i % pes },
			},
			{ID: 1, N: 1, New: func(int) core.Chare { return &waveRoot{want: tokens} }, Map: func(int, int) int { return 0 }},
		},
		Start: func(ctx *core.Ctx) {
			for t := 0; t < tokens; t++ {
				ctx.Send(core.ElemRef{Array: 0, Index: t}, 0, waveToken{hops: hops, val: uint64(t)})
			}
		},
	}
}
