// Package ampi is GridMDO's Adaptive MPI layer: an MPI-flavored
// programming model in which each rank is a user-level thread (a
// goroutine) embedded in a message-driven array element, exactly as AMPI
// embeds MPI processes in Charm++ objects. Blocking operations (Recv,
// collectives) suspend the rank thread and return control to the PE's
// scheduler, so other objects — or other ranks mapped to the same PE —
// keep the processor busy; this is how "any MPI application can take
// advantage of" the paper's latency-masking technique without changes.
//
// Exactly one entity executes per PE at any instant: the scheduler hands
// execution to a rank thread through a channel handshake and waits until
// the rank blocks or finishes before dispatching the next message.
package ampi

import (
	"fmt"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/trace"
)

// Wildcards for Recv. AnyTag matches only application tags (>= 0);
// collective-internal traffic uses reserved negative tags.
const (
	AnySource = -1
	AnyTag    = -1
)

// Entry methods of the rank array.
const (
	entryBoot core.EntryID = 0
	entryMsg  core.EntryID = 1
)

// pkt is one rank-to-rank message.
type pkt struct {
	Src, Tag int
	Data     any
	Bytes    int
}

// PayloadBytes implements core.Sizer.
func (p pkt) PayloadBytes() int {
	if p.Bytes > 0 {
		return p.Bytes
	}
	return core.DefaultPayloadBytes
}

// PUP is the packet's one serializer: its wire form between processes
// and its form in a migrating rank's unexpected-message queue. Data nests
// as a tagged payload, so anything a rank can send between processes it
// can also carry through a migration.
func (q *pkt) PUP(p *core.PUP) {
	core.PUPVarint(p, &q.Src)
	core.PUPVarint(p, &q.Tag)
	core.PUPUvarint(p, &q.Bytes)
	p.Payload(&q.Data)
}

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
}

type recvReq struct {
	src, tag int
}

func (r recvReq) matches(p *pkt) bool {
	if r.src != AnySource && r.src != p.Src {
		return false
	}
	if r.tag == AnyTag {
		return p.Tag >= 0 // wildcards never capture collective traffic
	}
	return r.tag == p.Tag
}

type yieldKind uint8

const (
	yBlocked yieldKind = iota
	yDone
	ySync // parked in Comm.AtSync awaiting the load-balancing round
)

// Comm is a rank's communicator handle. It is valid only within the
// rank's main function (and on the rank's goroutine).
type Comm struct {
	rank, size int
	migratable bool // built with BuildMigratableProgram

	ctx     *core.Ctx // valid while this rank holds the execution slot
	inbox   []*pkt
	waiting *recvReq

	resume chan *pkt
	yield  chan yieldKind

	resumeSync chan struct{} // local resume after an AtSync round
	evicted    chan struct{} // closed when the balancer migrates this rank away

	met *ampiMetrics // shared across the program's ranks; never nil
}

// newComm builds a rank's communicator handle.
func newComm(rank, size int, met *ampiMetrics) *Comm {
	return &Comm{
		rank: rank, size: size,
		resume:     make(chan *pkt),
		yield:      make(chan yieldKind),
		resumeSync: make(chan struct{}),
		evicted:    make(chan struct{}),
		met:        met,
	}
}

// Rank reports this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks.
func (c *Comm) Size() int { return c.size }

// Wtime returns the executor clock (virtual or wall).
func (c *Comm) Wtime() time.Duration { return c.ctx.Time() }

// PE reports the processor currently executing this rank.
func (c *Comm) PE() int { return c.ctx.PE() }

// Charge accounts modeled compute time (virtual-time executor).
func (c *Comm) Charge(d time.Duration) { c.ctx.Charge(d) }

// Send delivers data to (dst, tag) asynchronously.
func (c *Comm) Send(dst, tag int, data any) {
	c.sendPkt(dst, tag, data, 0)
}

// SendBytes is Send with an explicit modeled payload size.
func (c *Comm) SendBytes(dst, tag int, data any, bytes int) {
	c.sendPkt(dst, tag, data, bytes)
}

func (c *Comm) sendPkt(dst, tag int, data any, bytes int) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("ampi: send to rank %d of %d", dst, c.size))
	}
	c.met.sends.Inc()
	c.ctx.Send(core.ElemRef{Array: 0, Index: dst}, entryMsg,
		pkt{Src: c.rank, Tag: tag, Data: data, Bytes: bytes})
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be AnySource and tag AnyTag.
func (c *Comm) Recv(src, tag int) (any, Status) {
	req := recvReq{src: src, tag: tag}
	// Unexpected-message queue first (MPI ordering: earliest match wins).
	for i, p := range c.inbox {
		if req.matches(p) {
			c.inbox = append(c.inbox[:i], c.inbox[i+1:]...)
			c.met.unexpected.Add(-1)
			return p.Data, Status{Source: p.Src, Tag: p.Tag}
		}
	}
	// Suspend: hand the PE back to the scheduler until a match arrives.
	c.waiting = &req
	c.met.blocked.Add(1)
	t0 := c.ctx.Time()
	c.ctx.Record(trace.EvBlock, int64(c.rank), 0)
	c.yield <- yBlocked
	p := <-c.resume
	c.met.blocked.Add(-1)
	// The entry handler refreshed c.ctx before resuming us, so the wake
	// event carries the waking message's causal ID.
	c.ctx.Record(trace.EvWake, int64(c.rank), int64(c.ctx.Time()-t0))
	return p.Data, Status{Source: p.Src, Tag: p.Tag}
}

// Sendrecv sends to dst and then receives from src; the send is
// asynchronous, so the exchange cannot deadlock.
func (c *Comm) Sendrecv(dst, sendTag int, data any, src, recvTag int) (any, Status) {
	c.Send(dst, sendTag, data)
	return c.Recv(src, recvTag)
}

// rankChare is the array element hosting one rank thread.
type rankChare struct {
	comm *Comm
	main func(*Comm)     // plain rank body (BuildProgram)
	mig  *MigratableMain // migratable rank body; nil for plain programs
	st   core.PUPable    // user rank state (migratable programs only)

	done   bool
	parked bool // rank goroutine suspended in AtSync on this PE
}

// Recv implements core.Chare: it runs on the scheduler and trampolines
// execution into the rank goroutine.
func (r *rankChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	c := r.comm
	c.ctx = ctx // the Ctx is handler-scoped; refresh it each delivery
	switch entry {
	case entryBoot:
		r.boot()
	case core.EntryResumeFromSync:
		if r.parked {
			// The rank stayed put: wake the goroutine inside AtSync.
			r.parked = false
			c.resumeSync <- struct{}{}
			r.wait()
			return
		}
		// Freshly migrated in: no goroutine exists on this PE. Re-enter
		// the rank body from the top with the unpacked state.
		r.boot()
	case entryMsg:
		p := data.(pkt)
		if r.done {
			return
		}
		if c.waiting != nil && c.waiting.matches(&p) {
			c.waiting = nil
			c.resume <- &p
			r.wait()
			return
		}
		c.inbox = append(c.inbox, &p)
		c.met.unexpected.Add(1)
	default:
		panic(fmt.Sprintf("ampi: unknown entry %d", entry))
	}
}

// boot launches the rank goroutine and parks the scheduler until it
// blocks, syncs, or finishes. A migratable rank may boot more than once
// over the array element's logical lifetime: once at program start and
// once on each PE it migrates to, re-entering Run with the restored state.
func (r *rankChare) boot() {
	c := r.comm
	go func() {
		if r.mig != nil {
			r.mig.Run(c, r.st)
		} else {
			r.main(c)
		}
		// Completion: contribute to the finalize reduction while the
		// rank still holds the execution slot, then release it.
		c.ctx.Contribute(1.0, core.OpSum)
		c.yield <- yDone
	}()
	r.wait()
}

// wait parks the scheduler until the rank blocks, syncs, or finishes.
func (r *rankChare) wait() {
	switch <-r.comm.yield {
	case yDone:
		r.done = true
	case ySync:
		r.parked = true
	}
}

// BuildProgram wraps an MPI-style main into a runnable core.Program with
// n ranks. The program exits (with nil) when every rank's main returns.
// Options (e.g. WithMetrics) configure the layer for the whole program.
// Ranks built this way cannot migrate; see BuildMigratableProgram.
func BuildProgram(n int, main func(*Comm), opts ...Option) (*core.Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ampi: %d ranks", n)
	}
	if main == nil {
		return nil, fmt.Errorf("ampi: nil main")
	}
	return buildProgram(n, func(i int, met *ampiMetrics) *rankChare {
		return &rankChare{main: main, comm: newComm(i, n, met)}
	}, opts)
}

// buildProgram assembles the rank array shared by both program builders.
func buildProgram(n int, newRank func(i int, met *ampiMetrics) *rankChare, opts []Option) (*core.Program, error) {
	var o options
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	met := newAMPIMetrics(o.reg)
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			New: func(i int) core.Chare { return newRank(i, met) },
		}},
		Start: func(ctx *core.Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(core.ElemRef{Array: 0, Index: i}, entryBoot, nil)
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) {
			ctx.ExitWith(v)
		},
	}
	if o.lb != nil {
		prog.LB = &core.LBConfig{Arrays: []core.ArrayID{0}, Strategy: o.lb}
	}
	return prog, nil
}

// Payload tags: AMPI owns 92–95 (DESIGN.md has the table).
func init() { core.RegisterPayload[pkt](92) }
