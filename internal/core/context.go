package core

import (
	"time"

	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// Backend is the executor-side interface behind a Ctx. The real-time
// runtime (this package) and the virtual-time simulator (internal/sim)
// each implement it; application code sees only Ctx and so runs unchanged
// on either executor.
type Backend interface {
	// Route transmits a message and reports its destination PE. For
	// KindApp the backend resolves the destination from its location
	// table. Route takes ownership of m: the caller must not touch it
	// afterwards, since the executor may deliver and release it (see
	// NewMessage) before Route returns.
	Route(m *Message) int32
	// Multicast sends data to entry of every member, from PE src, and
	// reports how many of the members' messages cross the WAN. Each
	// member receives its own message with its own trace ID; a backend
	// may carry the members one PE hosts in one frame. Backends that
	// route member by member implement it with SendEach.
	Multicast(src int, members []ElemRef, entry EntryID, data any) (wan int)
	// Now is the executor clock: wall time since run start (real-time) or
	// virtual time (simulator), observed at the current execution point.
	Now() time.Duration
	// Charge accounts d of modeled execution time to the running handler.
	// The simulator advances its PE clock by it; the real-time runtime
	// records it for load statistics only.
	Charge(d time.Duration)
	// Topo exposes the machine topology; Send counts WAN crossings by it.
	Topo() *topology.Topology
	// ArrayN reports the declared element count of an array.
	ArrayN(a ArrayID) int
	// ExitWith ends the run, making v the executor's result. The first
	// call wins; later calls are ignored.
	ExitWith(v any)
	// Contribute folds one element's reduction contribution (round seq)
	// into the PE-local partial.
	Contribute(from ElemRef, pe int, a ArrayID, seq int64, v any, op ReduceOp)
	// AtSync marks one element as having reached the load-balancing
	// barrier on pe.
	AtSync(from ElemRef, pe int)
	// Record emits an event into the executor's instrumentation sink
	// (tracer, metrics adapter); Ctx.Mark's annotations reach the trace
	// through it. No-op when nothing is configured; must be cheap enough
	// to call from hot paths.
	Record(ev trace.Event)
}

// Ctx is the handle a handler uses to interact with the runtime. A Ctx is
// only valid for the duration of the handler invocation it was passed to;
// chares must not retain it: a PE hands the same Ctx to every element
// handler it runs, and using it once the handler has returned panics.
// A handler's Ctx belongs to the goroutine running that handler.
type Ctx struct {
	b     Backend
	pe    int
	elem  ElemRef   // valid for KindApp handlers; {-1, -1} otherwise
	meta  *elemMeta // per-element runtime metadata; nil for non-element handlers
	msgID uint64    // causal ID of the message this handler is executing (0 outside app dispatch)
}

// elemMeta is executor-held per-element state.
type elemMeta struct {
	redSeq int64 // reduction rounds this element has contributed to
	load   time.Duration
	wanMsg int
	msgs   int
	atSync bool
}

// NoElem is the ElemRef used for handlers that do not run on an array
// element (Start, OnReduction).
var NoElem = ElemRef{Array: -1, Index: -1}

func newCtx(b Backend, pe int, elem ElemRef, meta *elemMeta) *Ctx {
	return &Ctx{b: b, pe: pe, elem: elem, meta: meta}
}

// retired is the backend behind a PE's element Ctx between handlers.
var retired Backend = retiredBackend{}

type retiredBackend struct{}

func (retiredBackend) misuse() {
	panic("core: Ctx used after the handler it was passed to returned")
}

func (r retiredBackend) Route(*Message) int32                                   { r.misuse(); return 0 }
func (r retiredBackend) Multicast(int, []ElemRef, EntryID, any) int             { r.misuse(); return 0 }
func (r retiredBackend) Now() time.Duration                                     { r.misuse(); return 0 }
func (r retiredBackend) Charge(time.Duration)                                   { r.misuse() }
func (r retiredBackend) Topo() *topology.Topology                               { r.misuse(); return nil }
func (r retiredBackend) ArrayN(ArrayID) int                                     { r.misuse(); return 0 }
func (r retiredBackend) ExitWith(any)                                           { r.misuse() }
func (r retiredBackend) Contribute(ElemRef, int, ArrayID, int64, any, ReduceOp) { r.misuse() }
func (r retiredBackend) AtSync(ElemRef, int)                                    { r.misuse() }
func (r retiredBackend) Record(trace.Event)                                     { r.misuse() }

// Send delivers data to entry of the element to, asynchronously.
func (c *Ctx) Send(to ElemRef, entry EntryID, data any) {
	m := NewMessage()
	m.Kind, m.To, m.Entry, m.Data = KindApp, to, entry, data
	m.Bytes = payloadBytes(data)
	m.SrcPE = int32(c.pe)
	dst := c.b.Route(m)
	if c.meta != nil {
		c.meta.msgs++
		if c.b.Topo().CrossesWAN(c.pe, int(dst)) {
			c.meta.wanMsg++
		}
	}
}

// Multicast sends data to every member of a section (the paper's LeanMD
// cells multicast coordinates to their dependent cell-pairs this way).
// Each member receives an independent message; see Backend.Multicast.
func (c *Ctx) Multicast(sec *Section, entry EntryID, data any) {
	wan := c.b.Multicast(c.pe, sec.Members, entry, data)
	if c.meta != nil {
		c.meta.msgs += len(sec.Members)
		c.meta.wanMsg += wan
	}
}

// SendEach is the member-by-member multicast: one app message per member,
// routed from PE src as Ctx.Send routes it. It returns how many of them
// cross the WAN.
func SendEach(b Backend, src int, members []ElemRef, entry EntryID, data any) (wan int) {
	for _, ref := range members {
		m := NewMessage()
		m.Kind, m.To, m.Entry, m.Data = KindApp, ref, entry, data
		m.Bytes = payloadBytes(data)
		m.SrcPE = int32(src)
		if b.Topo().CrossesWAN(src, int(b.Route(m))) {
			wan++
		}
	}
	return wan
}

// Broadcast sends data to every element of an array.
func (c *Ctx) Broadcast(a ArrayID, entry EntryID, data any) {
	n := c.b.ArrayN(a)
	for i := 0; i < n; i++ {
		c.Send(ElemRef{Array: a, Index: i}, entry, data)
	}
}

// Contribute folds v into the current reduction round of this element's
// array. Every element of the array must contribute exactly once per
// round, with the same op; when the round completes, Program.OnReduction
// runs on PE 0 with the combined value.
func (c *Ctx) Contribute(v any, op ReduceOp) {
	if c.meta == nil {
		panic("core: Contribute outside an array element handler")
	}
	c.meta.redSeq++
	c.b.Contribute(c.elem, c.pe, c.elem.Array, c.meta.redSeq, v, op)
}

// AtSync enters the load-balancing barrier. The element must not send or
// expect application messages until its EntryResumeFromSync entry runs
// (possibly on a different PE).
func (c *Ctx) AtSync() {
	if c.meta == nil {
		panic("core: AtSync outside an array element handler")
	}
	c.meta.atSync = true
	c.b.AtSync(c.elem, c.pe)
}

// Charge accounts modeled execution time to this handler; see
// Backend.Charge.
func (c *Ctx) Charge(d time.Duration) { c.b.Charge(d) }

// Time returns the executor clock at the current execution point.
func (c *Ctx) Time() time.Duration { return c.b.Now() }

// PE reports the PE this handler is executing on.
func (c *Ctx) PE() int { return c.pe }

// Elem reports the element this handler runs on, or NoElem.
func (c *Ctx) Elem() ElemRef { return c.elem }

// ExitWith ends the run with result v.
func (c *Ctx) ExitWith(v any) { c.b.ExitWith(v) }

// Exit ends the run with a nil result.
func (c *Ctx) Exit() { c.b.ExitWith(nil) }

// Mark records a free-form annotation on this PE's trace timeline. The
// overlap profiler segments steps at Mark("step", n, 0) boundaries;
// anything else is carried through to the exported views untouched.
func (c *Ctx) Mark(note string, arg1, arg2 int64) {
	c.b.Record(trace.Event{PE: c.pe, Kind: trace.EvNote, At: c.b.Now(), Note: note, Arg1: arg1, Arg2: arg2, MsgID: c.msgID})
}
