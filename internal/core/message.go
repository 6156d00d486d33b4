package core

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies messages flowing through an executor.
type Kind uint8

// Message kinds. Application messages target array elements; the others
// target PEs and carry runtime protocol payloads.
const (
	KindApp       Kind = iota // entry-method invocation on an array element
	KindStart                 // run Program.Start on PE 0
	KindReduce                // reduction partial bound for the root PE
	KindLB                    // load-balancing protocol (stats, apply, resume)
	_                         // retired (quiescence detection); its number stays unused
	KindBundle                // several same-destination messages in one frame (the benchmark's codec probe only; no executor sends one)
	_                         // retired (scheduler shutdown); its number stays unused
	KindMember                // membership recovery: (re)construct an element locally
	KindMulticast             // one multicast's members on one remote PE, fanned out on arrival (real-time runtime only)
)

// Message is the unit of work executors schedule. Exactly one of (To,
// Entry) — for KindApp — or DstPE is meaningful for routing; the router
// fills DstPE for app messages from the location table.
type Message struct {
	Kind  Kind
	To    ElemRef
	Entry EntryID
	Data  any

	// Bytes is the modeled payload size used by the link model. It is
	// set at send and is not carried on the wire: a message decoded from
	// a frame reads 0.
	Bytes int

	SrcPE int32
	DstPE int32

	// ID identifies the message in the causal trace DAG. The executor
	// assigns it at routing time (node-unique: the runtime seeds the
	// counter with the node number in the high 16 bits) and the wire codec
	// carries it, so a remote enqueue still links to the local send.
	// Zero means untraced.
	ID uint64

	// Parent is the ID of the message whose handler sent this one — the
	// causal edge critical-path analysis walks. Zero at DAG roots (the
	// start message, sends from outside any handler).
	Parent uint64

	// EnqueuedAt is the executor time at which the message became
	// deliverable at the destination. It exists for tracing: the real-time
	// runtime stamps it only when an event sink is attached, and leaves it
	// zero rather than read the clock for nobody.
	EnqueuedAt time.Duration
}

// msgPool holds the Messages executors have released. Every message on
// the hot path (Ctx.Send, PostTraced, the wire decoder) comes from it.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zeroed Message. The caller owns it until it hands
// it to an executor (Backend.Route, or an executor's own queue); from then
// on the executor does, and gives it back with ReleaseMessage once the
// message's handler has returned, or once it is encoded for another
// process. An executor keeps a message instead of releasing it in three
// cases: PEHost.DeliverApp parked it for an element at a load-balancing
// sync, membership recovery buffered it for an element being re-homed, or
// it is not a KindApp message.
func NewMessage() *Message { return msgPool.Get().(*Message) }

// ReleaseMessage zeroes m and returns it to the pool NewMessage draws
// from. Only m's owner may call it, and nothing may read m afterwards: a
// stale reference would see the next message in its place. Zeroing drops
// the payload reference, so a released message does not keep its Data
// alive.
func ReleaseMessage(m *Message) {
	*m = Message{}
	msgPool.Put(m)
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{kind=%d %v e%d %d->%d}", m.Kind, m.To, m.Entry, m.SrcPE, m.DstPE)
}

// payloadBytes models the wire size of a payload.
func payloadBytes(data any) int {
	if s, ok := data.(Sizer); ok {
		return s.PayloadBytes()
	}
	return DefaultPayloadBytes
}
