package core

import (
	"fmt"
	"slices"
	"time"
)

// ElemTable is the element storage shared by the PE hosts of one executor:
// per array, one slot per element index, holding the chare and its runtime
// metadata together so a delivery is two indexings and no hashing. It is
// sized once from the program and never reshaped; a slot is only ever
// touched by the host that holds the element (ownership moves with the
// migration messages), so hosts on different goroutines share the table
// without locking.
type ElemTable struct {
	slots [][]elemSlot
}

type elemSlot struct {
	ch   Chare
	meta *elemMeta // nil while no host holds the element
	pe   int32     // the host holding it
	pos  int32     // its index in that host's refs
}

// NewElemTable builds the empty table for prog's arrays.
func NewElemTable(prog *Program) *ElemTable {
	t := &ElemTable{slots: make([][]elemSlot, len(prog.Arrays))}
	for ai := range prog.Arrays {
		t.slots[ai] = make([]elemSlot, prog.Arrays[ai].N)
	}
	return t
}

// PEHost is the per-PE element container shared by both executors: it owns
// the chare instances living on one PE, their runtime metadata, and all
// handler dispatch (and therefore every Ctx). Executors feed it messages
// one at a time; PEHost itself is not goroutine-safe and must only be
// touched by its PE's scheduler (or the simulator thread running the PE).
type PEHost struct {
	b    Backend
	pe   int
	tab  *ElemTable
	refs []ElemRef // elements held by this PE, in no particular order

	// ctx is the one Ctx every element handler on this PE receives, bound
	// to the element for the duration of the call and retired after it.
	ctx Ctx

	// parked buffers application messages addressed to an element that is
	// at a load-balancing sync. Without this, an element whose neighbors
	// resume earlier (resume broadcasts race application traffic once
	// migration messages carry real payloads) can be driven past the sync
	// point before its own resume arrives, deadlocking the exchange.
	// Buffered messages replay in arrival order on ResumeFromSync.
	parked map[ElemRef][]*Message

	// MeasureWall, when set (real-time runtime under a load balancer),
	// adds the wall-clock duration of each handler to the element's
	// measured load, in addition to any explicitly charged time.
	MeasureWall bool
}

// NewPEHost builds an empty host for pe over the executor's element table.
func NewPEHost(b Backend, pe int, tab *ElemTable) *PEHost {
	return &PEHost{
		b:      b,
		pe:     pe,
		tab:    tab,
		ctx:    Ctx{b: retired, pe: pe},
		parked: make(map[ElemRef][]*Message),
	}
}

// slot returns ref's slot when this PE holds the element, nil otherwise.
func (h *PEHost) slot(ref ElemRef) *elemSlot {
	t := h.tab.slots
	if uint(ref.Array) >= uint(len(t)) || uint(ref.Index) >= uint(len(t[ref.Array])) {
		return nil
	}
	s := &t[ref.Array][ref.Index]
	if s.meta == nil || int(s.pe) != h.pe {
		return nil
	}
	return s
}

// AddElement installs a chare as element ref, which must name a slot of
// the program's arrays.
func (h *PEHost) AddElement(ref ElemRef, ch Chare) {
	h.addElementWithMeta(ref, ch, &elemMeta{})
}

// addElementWithMeta reinstalls a migrated element, preserving metadata.
func (h *PEHost) addElementWithMeta(ref ElemRef, ch Chare, m *elemMeta) {
	if m == nil {
		m = &elemMeta{}
	}
	s := &h.tab.slots[ref.Array][ref.Index]
	if s.meta == nil {
		s.pos = int32(len(h.refs))
		h.refs = append(h.refs, ref)
	}
	s.ch, s.meta, s.pe = ch, m, int32(h.pe)
}

// removeElement evicts an element, returning its metadata.
func (h *PEHost) removeElement(ref ElemRef) (*elemMeta, bool) {
	s := h.slot(ref)
	if s == nil {
		return nil, false
	}
	m := s.meta
	last := h.refs[len(h.refs)-1]
	h.refs[s.pos] = last
	h.slot(last).pos = s.pos
	h.refs = h.refs[:len(h.refs)-1]
	*s = elemSlot{}
	delete(h.parked, ref)
	return m, true
}

// Has reports whether element ref lives on this PE.
func (h *PEHost) Has(ref ElemRef) bool { return h.slot(ref) != nil }

// DeliverApp dispatches an application message to its target element. A
// message for an element parked at a load-balancing sync is buffered and
// replays after the element resumes; DeliverApp then reports parked, and
// the host keeps m, so the executor must not release it.
func (h *PEHost) DeliverApp(m *Message) (parked bool, err error) {
	s := h.slot(m.To)
	if s == nil {
		return false, fmt.Errorf("core: PE %d has no element %v (message %v)", h.pe, m.To, m)
	}
	if s.meta.atSync {
		h.parked[m.To] = append(h.parked[m.To], m)
		return true, nil
	}
	h.invoke(s, m.To, m.ID, m.Entry, m.Data)
	return false, nil
}

// ParkedMessages reports how many application messages are buffered for
// an element parked at sync.
func (h *PEHost) ParkedMessages(ref ElemRef) int { return len(h.parked[ref]) }

// RunStart executes the program's Start handler (PE 0).
func (h *PEHost) RunStart(prog *Program) {
	ctx := newCtx(h.b, h.pe, NoElem, nil)
	prog.Start(ctx)
}

// RunReduction executes the program's reduction callback (PE 0).
func (h *PEHost) RunReduction(prog *Program, a ArrayID, seq int64, v any) {
	if prog.OnReduction == nil {
		return
	}
	ctx := newCtx(h.b, h.pe, NoElem, nil)
	prog.OnReduction(ctx, a, seq, v)
}

// ResumeFromSync clears an element's at-sync mark, delivers the
// EntryResumeFromSync entry, and then replays any application messages
// that were buffered while the element was parked, in arrival order. If
// the element re-enters sync during replay, the remainder stays parked.
func (h *PEHost) ResumeFromSync(ref ElemRef) error {
	s := h.slot(ref)
	if s == nil {
		return fmt.Errorf("core: PE %d cannot resume missing element %v", h.pe, ref)
	}
	meta := s.meta
	meta.atSync = false
	h.invoke(s, ref, 0, EntryResumeFromSync, nil)
	for len(h.parked[ref]) > 0 && !meta.atSync {
		m := h.parked[ref][0]
		h.parked[ref] = h.parked[ref][1:]
		if _, err := h.DeliverApp(m); err != nil {
			return err
		}
	}
	if len(h.parked[ref]) == 0 {
		delete(h.parked, ref)
	}
	return nil
}

// invoke runs one entry of the element in s with the host's Ctx bound to
// it. The clock is read only when a load balancer will consume the
// measurement. Handlers never nest on a PE (sends are queued, not
// dispatched), so one Ctx serves them all; between handlers it stands on
// the retired backend, so a chare that kept its Ctx and uses it later
// panics instead of acting in the name of whichever element ran last.
func (h *PEHost) invoke(s *elemSlot, ref ElemRef, msgID uint64, entry EntryID, data any) {
	c := &h.ctx
	c.b, c.elem, c.meta, c.msgID = h.b, ref, s.meta, msgID
	if h.MeasureWall {
		start := time.Now()
		s.ch.Recv(c, entry, data)
		c.meta.load += time.Since(start)
	} else {
		s.ch.Recv(c, entry, data)
	}
	c.b = retired
}

// AddLoad accounts measured or modeled execution time to an element. The
// virtual-time executor uses it to credit charged time after a handler.
func (h *PEHost) AddLoad(ref ElemRef, d time.Duration) {
	if s := h.slot(ref); s != nil {
		s.meta.load += d
	}
}

// StatsAndReset snapshots per-element load statistics for a load-balancing
// round and resets the accumulators.
func (h *PEHost) StatsAndReset(arrays []ArrayID) []ElemLoad {
	var out []ElemLoad
	for _, ref := range h.refs {
		if !slices.Contains(arrays, ref.Array) {
			continue
		}
		meta := h.slot(ref).meta
		out = append(out, ElemLoad{
			Ref:     ref,
			PE:      h.pe,
			Load:    meta.load,
			Msgs:    meta.msgs,
			WanMsgs: meta.wanMsg,
		})
		meta.load, meta.msgs, meta.wanMsg = 0, 0, 0
	}
	return out
}

// AllAtSync reports whether every element of the given arrays on this PE
// has called AtSync.
func (h *PEHost) AllAtSync(arrays []ArrayID) bool {
	for _, ref := range h.refs {
		if slices.Contains(arrays, ref.Array) && !h.slot(ref).meta.atSync {
			return false
		}
	}
	return true
}
