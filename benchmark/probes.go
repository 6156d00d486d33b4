package main

import (
	"sync"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/stencil"
	"gridmdo/internal/vmi"
)

// Probes time direct calls into one layer's public functions with no
// runtime around them. Each value is the median of probeRuns runs of about
// 60 ms. A workload runs the probes of the layers its messages cross.

const probeRuns = 5

// perOpNS runs f(n) probeRuns times and reports the median time per
// operation in nanoseconds.
func perOpNS(n int, f func(n int)) float64 {
	runs := make([]float64, probeRuns)
	for i := range runs {
		from := time.Now()
		f(n)
		runs[i] = float64(time.Since(from).Nanoseconds()) / float64(n)
	}
	return median(runs)
}

func localProbes() map[string]float64 {
	return map[string]float64{
		"core.queue.cycle_ns": probeQueue(),
		"vmi.delay.pass_ns":   probeDelayPass(),
	}
}

func wireProbes() map[string]float64 {
	out := localProbes()
	probeCodec(out)
	out["vmi.frame.codec2k_ns"] = probeFrame()
	probeStack(out)
	return out
}

func stencilProbes() map[string]float64 {
	const side, steps = 1024, 20
	return map[string]float64{
		"stencil.seq_ns_per_cell": perOpNS(side*side*steps, func(int) { stencil.RunSequential(side, side, steps) }),
		"vmi.delay.late_us_p50":   probeDelayLate(),
	}
}

func leanmdProbes() map[string]float64 {
	p := leanmd.DefaultParams()
	p.AtomsPerCell = 12
	g, err := leanmd.NewGeometry(p.NX, p.NY, p.NZ)
	if err != nil {
		return nil
	}
	ff, sys := p.Field(), leanmd.BuildSystem(p, g)
	return map[string]float64{
		"leanmd.forces_us":      perOpNS(1, func(int) { leanmd.DecomposedForces(p, g, ff, sys) }) / 1e3,
		"vmi.delay.late_us_p50": probeDelayLate(),
		"core.queue.cycle_ns":   probeQueue(),
	}
}

// probeQueue pushes and pops bursts of the scheduler's batch size.
func probeQueue() float64 {
	const burst = 32
	q := core.NewQueue()
	msgs := make([]*core.Message, burst)
	for i := range msgs {
		msgs[i] = &core.Message{Kind: core.KindApp}
	}
	batch := make([]*core.Message, 0, burst)
	return perOpNS(2_000_000, func(n int) {
		for i := 0; i < n; i += burst {
			for _, m := range msgs {
				q.Push(m)
			}
			batch = q.PopBatch(batch[:0])
		}
	})
}

// probeCodec round-trips each built-in payload kind through the message
// codec, reusing the encode buffer as the transport does.
func probeCodec(out map[string]float64) {
	to := core.ElemRef{Array: 0, Index: 1}
	slice := make([]float64, 256)
	for i := range slice {
		slice[i] = float64(i)
	}
	four := make([]*core.Message, 4)
	for i := range four {
		four[i] = &core.Message{Kind: core.KindApp, To: to, Data: float64(i), DstPE: 1}
	}
	var buf []byte
	roundTrip := func(m *core.Message) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				buf, _ = core.AppendMessage(buf[:0], m)
				if _, err := core.DecodeMessage(buf); err != nil {
					panic(err)
				}
			}
		}
	}
	out["core.codec.f64_ns"] = perOpNS(300_000, roundTrip(&core.Message{Kind: core.KindApp, To: to, Data: 3.25}))
	bulk := roundTrip(&core.Message{Kind: core.KindApp, To: to, Data: slice})
	out["core.codec.f64x256_ns"] = perOpNS(100_000, bulk)
	out["core.codec.bundle4_ns"] = perOpNS(100_000, roundTrip(core.MakeBundle(four)))

	const allocRuns = 10_000
	before := mallocCount()
	bulk(allocRuns)
	out["core.codec.f64x256_allocs"] = float64(mallocCount()-before) / allocRuns
}

func probeFrame() float64 {
	f := &vmi.Frame{Src: 0, Dst: 1, Body: make([]byte, 2048)}
	var buf []byte
	var g vmi.Frame
	return perOpNS(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			buf = f.AppendEncode(buf[:0])
			if _, err := g.DecodeBytes(buf); err != nil {
				panic(err)
			}
		}
	})
}

func probeDelayPass() float64 {
	d := vmi.NewDelayDevice(func(_, _ int32) time.Duration { return 0 })
	defer d.Close()
	f := &vmi.Frame{Src: 0, Dst: 1}
	next := func(*vmi.Frame) error { return nil }
	return perOpNS(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = d.Send(f, next)
		}
	})
}

// probeDelayLate holds frames for 4 ms, one sent every millisecond, and
// reports how long after its due time a frame is typically released.
func probeDelayLate() float64 {
	const hold, frames = 4 * time.Millisecond, 200
	d := vmi.NewDelayDevice(func(_, _ int32) time.Duration { return hold })
	defer d.Close()
	var mu sync.Mutex
	var late []float64
	var wg sync.WaitGroup
	for i := 0; i < frames; i++ {
		wg.Add(1)
		due := time.Now().Add(hold)
		_ = d.Send(&vmi.Frame{Src: 0, Dst: 1}, func(*vmi.Frame) error {
			l := us(time.Since(due))
			mu.Lock()
			late = append(late, l)
			mu.Unlock()
			wg.Done()
			return nil
		})
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	return median(late)
}

// probeStack joins two Reliable stacks over loopback TCP with no runtime:
// a frame goes Stack.Send → socket → the peer's Bind callback.
func probeStack(out map[string]float64) {
	route := func(pe int32) int { return int(pe) }
	var stacks [2]*vmi.Stack
	var addrs [2]string
	for node := range stacks {
		s, err := vmi.NewChainBuilder(node, map[int]string{node: "127.0.0.1:0"}, route).
			Reliable(vmi.ReliableConfig{}).Build()
		if err != nil {
			return
		}
		defer s.Close()
		if addrs[node], err = s.Listen(); err != nil {
			return
		}
		stacks[node] = s
	}
	stacks[0].SetAddr(1, addrs[1])
	stacks[1].SetAddr(0, addrs[0])

	arrived := make(chan time.Time, 64) // one slot per frame the widest window keeps in flight
	stacks[0].Bind(func(*vmi.Frame) error { return nil }, func(error) {})
	stacks[1].Bind(func(*vmi.Frame) error { arrived <- time.Now(); return nil }, func(error) {})

	small := &vmi.Frame{Src: 0, Dst: 1, Body: make([]byte, 64)}
	oneway := make([]float64, 0, 5000)
	for i := 0; i < cap(oneway); i++ {
		from := time.Now()
		if stacks[0].Send(small) != nil {
			return
		}
		oneway = append(oneway, us((<-arrived).Sub(from)))
	}
	out["vmi.stack.oneway_us_p50"] = median(oneway)

	// windowed keeps 64 frames between Send and the callback.
	windowed := func(f *vmi.Frame) func(n int) {
		return func(n int) {
			inFlight := 0
			for sent := 0; sent < n; sent++ {
				if inFlight == cap(arrived) {
					<-arrived
					inFlight--
				}
				if stacks[0].Send(f) != nil {
					return
				}
				inFlight++
			}
			for ; inFlight > 0; inFlight-- {
				<-arrived
			}
		}
	}
	out["vmi.stack.frames_per_s"] = 1e9 / perOpNS(50_000, windowed(small))
	big := &vmi.Frame{Src: 0, Dst: 1, Body: make([]byte, 2048)}
	out["vmi.stack.bulk_mb_per_s"] = 2048 / perOpNS(20_000, windowed(big)) * 1e3
}
