// Package core implements the message-driven object model at the center of
// the paper: programs are decomposed into many more parallel objects
// (chares, organized into indexed chare arrays) than physical processors;
// objects communicate through asynchronous prioritized messages; and each
// processing element (PE) runs a scheduler that executes whichever object
// has a deliverable message. Latency tolerance — the paper's subject —
// falls out of this model: while messages from a remote cluster are in
// flight, the scheduler keeps the PE busy with objects whose messages have
// already arrived.
//
// The package provides the shared programming model (Program, ArraySpec,
// Chare, Ctx), the runtime protocol state machines (reductions,
// load-balancing sync, membership recovery), and the real-time executor
// (Runtime), which runs one scheduler goroutine per PE with VMI device
// chains between them. A virtual-time executor sharing the same
// programming model lives in internal/sim.
package core

import "fmt"

// ArrayID identifies a chare array within a Program.
type ArrayID int32

// EntryID selects which entry method of a chare a message invokes.
// Non-negative values are application-defined; negative values are
// reserved for the runtime.
type EntryID int32

// EntryResumeFromSync is delivered to an element after a load-balancing
// step it joined via Ctx.AtSync completes (possibly on a new PE).
const EntryResumeFromSync EntryID = -1

// ElemRef names one element of one chare array.
type ElemRef struct {
	Array ArrayID
	Index int
}

func (r ElemRef) String() string { return fmt.Sprintf("a%d[%d]", r.Array, r.Index) }

// Chare is a message-driven object. Recv is invoked by a PE's scheduler
// with exactly-one-at-a-time semantics per PE; a chare never needs
// internal locking for its own state. Handlers run to completion and may
// send any number of messages through ctx.
type Chare interface {
	Recv(ctx *Ctx, entry EntryID, data any)
}

// Sizer lets a payload declare its modeled wire size in bytes. Executors
// use it for bandwidth modeling and (in the real-time runtime) to decide
// buffer sizes; payloads without it are modeled at DefaultPayloadBytes.
type Sizer interface {
	PayloadBytes() int
}

// DefaultPayloadBytes is the modeled size of payloads that do not
// implement Sizer.
const DefaultPayloadBytes = 64

// Section is a static multicast target: an ordered set of array elements.
// Ctx.Multicast delivers one message per member.
type Section struct {
	Members []ElemRef
}

// NewSection builds a section from element references.
func NewSection(members ...ElemRef) *Section {
	return &Section{Members: append([]ElemRef(nil), members...)}
}
