package main

import (
	"fmt"
	"runtime"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// The msg workloads run one program: a pinger chare on PE 0 and an echo
// chare on PE 1. Phase A sends one message at a time and times each round
// trip in the pinger's handler; phase B keeps window round trips in flight.
// msg_local hosts both PEs in one runtime, so a message crosses queue,
// scheduler and router only; msg_tcp and msg_bulk put a TCP+Reliable stack
// between the PEs, with a float64 and a 2 KiB []float64 payload.

const (
	entryKick core.EntryID = iota
	entryPing
	entryPong
)

type msgSizes struct {
	seqTrips  int // phase A round trips
	pipeTrips int // phase B round trips
	window    int // round trips in flight in phase B
	words     int // payload: 0 sends a float64, n a []float64 of n words

	// tracedPipeTrips replaces pipeTrips on a traced repetition, whose
	// sink holds four events per message in memory.
	tracedPipeTrips int
}

// msgResult is what the pinger hands to ExitWith.
type msgResult struct {
	rtts        []time.Duration
	pipeWall    time.Duration
	pipeCPU     time.Duration
	pipeMallocs uint64
	wrong       int64         // echoes that differed from what was sent
	seqFrom     time.Duration // executor clock at the start and end of phase A
	seqTo       time.Duration
}

type pinger struct {
	sz    msgSizes
	base  float64
	echo  core.ElemRef
	slots [][]float64 // one payload buffer per in-flight round trip
	res   *msgResult

	pipelined  bool
	sent, recv int
	sentAt     time.Time
	pipeStart  time.Time
	cpuStart   time.Duration
	mallocs    uint64
}

func newPinger(sz msgSizes, base float64) *pinger {
	p := &pinger{sz: sz, base: base, echo: core.ElemRef{Array: 0, Index: 1},
		res: &msgResult{rtts: make([]time.Duration, 0, sz.seqTrips)}}
	if sz.words > 0 {
		p.slots = make([][]float64, sz.window)
		for k := range p.slots {
			p.slots[k] = make([]float64, sz.words)
			for j := range p.slots[k] {
				p.slots[k][j] = p.word(k, j)
			}
		}
	}
	return p
}

func (p *pinger) word(slot, j int) float64 { return p.base + float64(slot*p.sz.words+j) }

// payload builds the message of round trip i; word 0 carries i so that no
// two messages are equal.
func (p *pinger) payload(i int) any {
	if p.sz.words == 0 {
		return p.base + float64(i)
	}
	s := p.slots[i%p.sz.window]
	s[0] = float64(i)
	return s
}

// check compares the i-th echo, element by element, with what was sent:
// the two PEs exchange messages of one priority, so echoes return in order.
func (p *pinger) check(i int, data any) bool {
	if p.sz.words == 0 {
		v, ok := data.(float64)
		return ok && v == p.base+float64(i)
	}
	s, ok := data.([]float64)
	if !ok || len(s) != p.sz.words || s[0] != float64(i) {
		return false
	}
	slot := i % p.sz.window
	for j := 1; j < len(s); j++ {
		if s[j] != p.word(slot, j) {
			return false
		}
	}
	return true
}

func (p *pinger) ping(ctx *core.Ctx) {
	ctx.Send(p.echo, entryPing, p.payload(p.sent))
	p.sent++
}

func (p *pinger) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	if entry == entryKick {
		p.res.seqFrom = ctx.Time()
		p.sentAt = time.Now()
		p.ping(ctx)
		return
	}
	if !p.check(p.recv, data) {
		p.res.wrong++
	}
	p.recv++
	if !p.pipelined {
		now := time.Now()
		p.res.rtts = append(p.res.rtts, now.Sub(p.sentAt))
		if p.recv < p.sz.seqTrips {
			p.sentAt = time.Now()
			p.ping(ctx)
			return
		}
		p.res.seqTo = ctx.Time()
		p.startPipeline(ctx)
		return
	}
	if p.sent < p.sz.pipeTrips {
		p.ping(ctx)
	}
	if p.recv == p.sz.pipeTrips {
		p.res.pipeWall = time.Since(p.pipeStart)
		p.res.pipeCPU = cpuTime() - p.cpuStart
		p.res.pipeMallocs = mallocCount() - p.mallocs
		ctx.ExitWith(p.res)
	}
}

func (p *pinger) startPipeline(ctx *core.Ctx) {
	p.pipelined = true
	p.sent, p.recv = 0, 0
	p.mallocs = mallocCount()
	p.cpuStart = cpuTime()
	p.pipeStart = time.Now()
	for p.sent < p.sz.window && p.sent < p.sz.pipeTrips {
		p.ping(ctx)
	}
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

type echo struct{ pinger core.ElemRef }

func (e echo) Recv(ctx *core.Ctx, _ core.EntryID, data any) {
	ctx.Send(e.pinger, entryPong, data)
}

// msgProgram places the pinger on PE 0 and the echo on PE 1. Each node of
// a cluster builds its own copy; only the copy that hosts PE 0 runs p.
func msgProgram(p *pinger) *core.Program {
	return &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: 2,
			New: func(i int) core.Chare {
				if i == 0 {
					return p
				}
				return echo{pinger: core.ElemRef{Array: 0, Index: 0}}
			},
			Map: func(i, _ int) int { return i },
		}},
		Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, entryKick, nil) },
	}
}

type msgRunner struct {
	name string
	tcp  bool
	sz   msgSizes
	base float64
}

func msgSizesFor(name string, toy bool) msgSizes {
	var sz msgSizes
	switch name {
	case "msg_local":
		sz = msgSizes{seqTrips: 5_000, pipeTrips: 60_000, tracedPipeTrips: 60_000, window: 64}
	case "msg_tcp":
		sz = msgSizes{seqTrips: 4_000, pipeTrips: 40_000, tracedPipeTrips: 40_000, window: 64}
	case "msg_bulk":
		sz = msgSizes{seqTrips: 4_000, pipeTrips: 8_000, tracedPipeTrips: 8_000, window: 64, words: 256}
	}
	if toy {
		sz.seqTrips, sz.pipeTrips, sz.tracedPipeTrips, sz.window = 100, 300, 300, 8
	}
	return sz
}

func newMsgRunner(name string, cfg runConfig) (runner, error) {
	return &msgRunner{
		name: name, tcp: name != "msg_local",
		sz:   msgSizesFor(name, cfg.toy),
		base: float64(cfg.rng(1).Int63n(1 << 30)),
	}, nil
}

func (m *msgRunner) plannedOps() int64 { return int64(m.sz.seqTrips + m.sz.pipeTrips) }

func (m *msgRunner) run(traced bool) (rep, error) {
	var r rep
	var o *observe
	sz := m.sz
	if traced {
		sz.pipeTrips = sz.tracedPipeTrips
		o = newObserve(2, 8*(sz.seqTrips+sz.pipeTrips))
	}
	p := newPinger(sz, m.base)
	var v any
	var err error
	setupFrom := time.Now()
	if m.tcp {
		var c *cluster
		c, err = newCluster(1, 0, func() (*core.Program, error) { return msgProgram(p), nil }, o)
		if err != nil {
			return r, err
		}
		r.setup = time.Since(setupFrom)
		v, _, err = c.run(&r)
	} else {
		var topo *topology.Topology
		if topo, err = topology.Single(2); err != nil {
			return r, err
		}
		var rt *core.Runtime
		if rt, err = core.NewRuntime(topo, msgProgram(p), o.coreOpts()...); err != nil {
			return r, err
		}
		r.setup = time.Since(setupFrom)
		v, err = rt.Run()
	}
	if err != nil {
		return r, err
	}
	res, ok := v.(*msgResult)
	if !ok {
		return r, fmt.Errorf("%s exited with %T", m.name, v)
	}
	r.attempted = int64(sz.seqTrips + sz.pipeTrips)
	r.failed = res.wrong
	r.ops = 2 * int64(sz.pipeTrips) // a round trip is two messages
	r.wall, r.cpu = res.pipeWall, res.pipeCPU
	rtt := make([]float64, len(res.rtts))
	for i, d := range res.rtts {
		rtt[i] = us(d)
	}
	r.opTimeUS = median(rtt)
	r.set("msg.rtt_p99_us", percentile(rtt, 0.99))
	r.set("go.allocs_per_msg", float64(res.pipeMallocs)/float64(r.ops))
	if sz.words > 0 {
		r.set("msg.bulk_mb_per_s", float64(r.ops)*float64(8*sz.words)/1e6/r.wall.Seconds())
	}
	if o != nil {
		mach := oneNode(2)
		if m.tcp {
			mach = twoNodes(1, 0)
		}
		coreLayers(&r, o, mach)
		r.set("budget.residual_frac", 1-roundTripPath(r.spans, res.seqFrom, res.seqTo)/r.opTimeUS)
	}
	return r, nil
}

// roundTripPath adds up, in microseconds, the medians of the stages along
// the blocking path of a sequential round trip: the ping's flight and queue
// wait, the echo's handler up to its send, the pong's flight and queue wait.
// What remains of the measured round trip is the pinger's own handler time
// and whatever the spans do not see.
func roundTripPath(spans []*msgSpan, from, to time.Duration) float64 {
	byID := make(map[uint64]*msgSpan, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var flight, wait, handler []float64
	for _, pong := range spans {
		ping := byID[pong.Parent]
		if ping == nil || pong.Dst != 0 || !ping.complete() || !pong.complete() || ping.Send < from || pong.Begin > to {
			continue
		}
		flight = append(flight, us(ping.flight()+pong.flight()))
		wait = append(wait, us(ping.wait()+pong.wait()))
		handler = append(handler, us(pong.Send-ping.Begin))
	}
	return median(flight) + median(wait) + median(handler)
}
