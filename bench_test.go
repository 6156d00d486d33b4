// Package gridmdo_bench holds the top-level testing.B benchmarks: one per
// table and figure of the paper's evaluation (scaled-down fast-profile
// versions of the cmd/gridsim experiments, so `go test -bench=.` touches
// every artifact), the DESIGN.md ablations, and micro-benchmarks of the
// runtime's hot paths.
//
// Paper-scale regeneration is cmd/gridsim's job; these benchmarks exist
// to track the performance of the reproduction itself and to exercise
// every experiment's code path under `-bench`.
package gridmdo_bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"gridmdo/internal/balance"
	"gridmdo/internal/bench"
	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// reportPerStep attaches the experiment's own metric to the benchmark.
func reportPerStep(b *testing.B, perStep time.Duration) {
	b.ReportMetric(float64(perStep)/1e6, "ms/step(virtual)")
}

// BenchmarkFigure3 regenerates Figure 3 points: stencil per-step time
// under artificial latency, across processor counts and virtualization
// degrees.
func BenchmarkFigure3(b *testing.B) {
	cfg := bench.FastProfile().Stencil
	for _, procs := range []int{8, 32} {
		for _, objects := range []int{64, 256} {
			for _, lat := range []time.Duration{0, 8 * time.Millisecond} {
				name := fmt.Sprintf("P%d/V%d/L%v", procs, objects, lat)
				b.Run(name, func(b *testing.B) {
					var last *stencil.Result
					for i := 0; i < b.N; i++ {
						res, err := bench.StencilSim(cfg, procs, objects, lat, sim.Options{})
						if err != nil {
							b.Fatal(err)
						}
						last = res
					}
					reportPerStep(b, last.PerStep)
				})
			}
		}
	}
}

// BenchmarkTable1 regenerates one Table 1 row through all three
// instruments: virtual-time, real-time with the delay device, and
// real-time over TCP sockets.
func BenchmarkTable1(b *testing.B) {
	cfg := bench.StencilConfig{Width: 256, Height: 256, Steps: 6, Warmup: 2, Model: stencil.DefaultModel()}
	lat := 1725 * time.Microsecond
	b.Run("sim/P8/V64", func(b *testing.B) {
		var last *stencil.Result
		for i := 0; i < b.N; i++ {
			res, err := bench.StencilSim(cfg, 8, 64, lat, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPerStep(b, last.PerStep)
	})
	b.Run("realtime-delay/P8/V64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.StencilRealtime(cfg, 8, 64, lat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("realtime-tcp/P8/V64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.StencilTCP(cfg, 8, 64, lat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure4 regenerates Figure 4 points: LeanMD per-step time
// versus latency across processor counts.
func BenchmarkFigure4(b *testing.B) {
	cfg := bench.FastProfile().MD
	for _, procs := range []int{8, 32} {
		for _, lat := range []time.Duration{time.Millisecond, 64 * time.Millisecond} {
			name := fmt.Sprintf("P%d/L%v", procs, lat)
			b.Run(name, func(b *testing.B) {
				var last *leanmd.Result
				for i := 0; i < b.N; i++ {
					res, err := bench.LeanMDSim(cfg, procs, lat, sim.Options{})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportPerStep(b, last.PerStep)
			})
		}
	}
}

// BenchmarkTable2 regenerates one Table 2 row through all three
// instruments.
func BenchmarkTable2(b *testing.B) {
	cfg := bench.MDConfig{NX: 3, NY: 3, NZ: 3, AtomsPerCell: 6, Steps: 5, Warmup: 2, Model: leanmd.DefaultModel()}
	lat := 1725 * time.Microsecond
	b.Run("sim/P8", func(b *testing.B) {
		var last *leanmd.Result
		for i := 0; i < b.N; i++ {
			res, err := bench.LeanMDSim(cfg, 8, lat, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPerStep(b, last.PerStep)
	})
	b.Run("realtime-delay/P8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.LeanMDRealtime(cfg, 8, lat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("realtime-tcp/P8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.LeanMDTCP(cfg, 8, lat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPriority measures WAN message prioritization on/off.
func BenchmarkAblationPriority(b *testing.B) {
	cfg := bench.FastProfile().Stencil
	for _, prio := range []bool{false, true} {
		b.Run(fmt.Sprintf("wanprio=%v", prio), func(b *testing.B) {
			var last *stencil.Result
			for i := 0; i < b.N; i++ {
				res, err := bench.StencilSim(cfg, 16, 256, 8*time.Millisecond, sim.Options{PrioritizeWAN: prio})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPerStep(b, last.PerStep)
		})
	}
}

// BenchmarkAblationGridLB measures balancing strategies from a
// half-empty placement (every other PE idle).
func BenchmarkAblationGridLB(b *testing.B) {
	base := bench.FastProfile().Stencil
	for _, tc := range []struct {
		name     string
		strategy core.Strategy
	}{{"none", nil}, {"greedy", balance.Greedy{}}, {"grid", balance.Grid{}}} {
		b.Run(tc.name, func(b *testing.B) {
			var last *stencil.Result
			for i := 0; i < b.N; i++ {
				p := &stencil.Params{
					Width: base.Width, Height: base.Height, VX: 16, VY: 16,
					Steps: base.Steps, Warmup: 3, Model: base.Model,
					InitialMap: func(i, numPE int) int {
						pe := core.BlockMap(i, 256, numPE)
						half := numPE / 2
						if pe < half {
							return pe / 2
						}
						return half + (pe-half)/2
					},
				}
				if tc.strategy != nil {
					p.LB, p.LBAtStep = tc.strategy, 2
				}
				res, err := bench.StencilSimParams(p, 8, 8*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPerStep(b, last.PerStep)
		})
	}
}

// BenchmarkAblationVirtualization sweeps the virtualization degree at
// zero latency.
func BenchmarkAblationVirtualization(b *testing.B) {
	cfg := bench.FastProfile().Stencil
	for _, v := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("V%d", v), func(b *testing.B) {
			var last *stencil.Result
			for i := 0; i < b.N; i++ {
				res, err := bench.StencilSim(cfg, 8, v, 0, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPerStep(b, last.PerStep)
		})
	}
}

// ---------------------------------------------------------------------------
// Runtime hot-path micro-benchmarks.

func BenchmarkQueuePushPop(b *testing.B) {
	q := core.NewQueue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(&core.Message{Prio: int32(i % 7)})
		if i%8 == 7 {
			for q.TryPop() != nil {
			}
		}
	}
}

func BenchmarkQueuePushPopBatch(b *testing.B) {
	// The real-time scheduler's drain pattern: bursts of pushes emptied
	// through PopBatch under one lock acquisition.
	q := core.NewQueue()
	batch := make([]*core.Message, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(&core.Message{Prio: int32(i % 7)})
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
	f := &vmi.Frame{Src: 1, Dst: 2, Seq: 3, Body: body}
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
	frame, err := core.EncodeMessage(&core.Message{Kind: core.KindApp})
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

func BenchmarkSimEventLoop(b *testing.B) {
	// Measures raw engine throughput: a message ring with no charges.
	topo, err := topology.TwoClusters(8, 0,
		topology.WithIntraLink(topology.Link{}),
		topology.WithInterLink(topology.Link{}),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog := ringProgram(64, 2000)
		e, err := sim.New(topo, prog, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2000, "msgs/op")
}

type ringChare struct{ n int }

func (r *ringChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	hops := data.(int)
	if hops <= 0 {
		ctx.Exit()
		return
	}
	next := (ctx.Elem().Index + 1) % r.n
	ctx.Send(core.ElemRef{Array: 0, Index: next}, 0, hops-1)
}

func ringProgram(n, hops int) *core.Program {
	return &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare { return &ringChare{n: n} },
		}},
		Start: func(ctx *core.Ctx) {
			ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, hops)
		},
	}
}

// TestBenchmarkConfigsAreRunnable keeps `go test ./...` (without -bench)
// exercising each benchmark configuration once, so a broken experiment
// fails tests rather than only failing under -bench.
func TestBenchmarkConfigsAreRunnable(t *testing.T) {
	cfg := bench.StencilConfig{Width: 128, Height: 128, Steps: 4, Warmup: 1, Model: stencil.DefaultModel()}
	if _, err := bench.StencilSim(cfg, 4, 16, time.Millisecond, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	md := bench.MDConfig{NX: 2, NY: 2, NZ: 2, AtomsPerCell: 4, Steps: 3, Warmup: 1, Model: leanmd.DefaultModel()}
	if _, err := bench.LeanMDSim(md, 4, time.Millisecond, sim.Options{}); err != nil {
		t.Fatal(err)
	}
}
