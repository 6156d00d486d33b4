package core

import (
	"container/list"
	"fmt"
)

// coldStore keeps most of a PE's chare state PUP-packed between events,
// so simulations of millions of elements fit in memory: only a small
// per-PE live set stays constructed, everything else lives as packed
// bytes. An element is hydrated (constructed fresh and unpacked, the same
// round-trip migration uses) when a message arrives for it, and the
// least-recently-used live element is packed back down when the live set
// overflows.
//
// Because PUP pack/unpack is an exact state round-trip (enforced by the
// pack-time symmetry check), a run with a cold store is event-for-event
// identical to one without: only the residency of idle elements changes.
type coldStore struct {
	capacity int
	rebuild  func(ElemRef) (Chare, error) // constructs an empty element (ArraySpec.New)

	packed map[ElemRef][]byte
	lru    *list.List // of ElemRef; front = most recently used live element
	pos    map[ElemRef]*list.Element

	// err is sticky: pack/hydrate failures surface on the next delivery
	// to keep the void-returning host entry points simple.
	err error

	packs    int64
	hydrates int64
	maxBytes int64 // high-water mark of packed bytes held
	bytes    int64
}

// EnableColdStore bounds this host's live element set to capacity
// constructed chares; rebuild must construct an empty element for a ref
// (typically the array spec's New). Every element of the host must
// implement Migratable. Enable before elements are added; construction
// then respects the bound too, so peak memory stays flat even while
// millions of elements are being built.
func (h *PEHost) EnableColdStore(capacity int, rebuild func(ElemRef) (Chare, error)) {
	if capacity < 1 {
		capacity = 1
	}
	h.cold = &coldStore{
		capacity: capacity,
		rebuild:  rebuild,
		packed:   make(map[ElemRef][]byte),
		lru:      list.New(),
		pos:      make(map[ElemRef]*list.Element),
	}
}

// ColdError reports the first pack or hydrate failure, if any. Executors
// check it after construction and after each handler.
func (h *PEHost) ColdError() error {
	if h.cold == nil {
		return nil
	}
	return h.cold.err
}

// ColdStats reports live and packed element counts, cumulative
// pack/hydrate operations, and the high-water mark of packed bytes.
func (h *PEHost) ColdStats() (live, packed int, packs, hydrates, maxBytes int64) {
	if h.cold == nil {
		return h.live, 0, 0, 0, 0
	}
	return h.live, len(h.cold.packed), h.cold.packs, h.cold.hydrates, h.cold.maxBytes
}

// coldTouch marks a live element as most recently used and packs LRU
// elements down to the live cap.
func (h *PEHost) coldTouch(ref ElemRef) {
	c := h.cold
	if c == nil {
		return
	}
	if e, ok := c.pos[ref]; ok {
		c.lru.MoveToFront(e)
	} else {
		c.pos[ref] = c.lru.PushFront(ref)
	}
	for h.live > c.capacity && c.lru.Len() > 1 {
		if !h.packColdest() {
			return
		}
	}
}

// coldForget drops LRU/packed bookkeeping for an element leaving the host.
func (h *PEHost) coldForget(ref ElemRef) {
	c := h.cold
	if c == nil {
		return
	}
	if e, ok := c.pos[ref]; ok {
		c.lru.Remove(e)
		delete(c.pos, ref)
	}
	if b, ok := c.packed[ref]; ok {
		c.bytes -= int64(len(b))
		delete(c.packed, ref)
	}
}

// packColdest PUP-packs the least-recently-used live element and drops
// the constructed instance. Reports whether an element was packed.
func (h *PEHost) packColdest() bool {
	c := h.cold
	back := c.lru.Back()
	if back == nil {
		return false
	}
	ref := back.Value.(ElemRef)
	s := h.slot(ref)
	if s == nil || s.ch == nil {
		c.lru.Remove(back)
		delete(c.pos, ref)
		return true
	}
	m, ok := s.ch.(Migratable)
	if !ok {
		c.fail(fmt.Errorf("core: cold store on PE %d: element %v of type %T is not Migratable", h.pe, ref, s.ch))
		return false
	}
	data, err := PUPPack(m)
	if err != nil {
		c.fail(fmt.Errorf("core: cold store on PE %d: pack %v: %w", h.pe, ref, err))
		return false
	}
	c.packed[ref] = data
	c.bytes += int64(len(data))
	if c.bytes > c.maxBytes {
		c.maxBytes = c.bytes
	}
	c.packs++
	c.lru.Remove(back)
	delete(c.pos, ref)
	s.ch = nil
	h.live--
	return true
}

// hydrate restores the packed element of slot s into the live set:
// construct an empty instance, unpack the saved state into it, install it
// as MRU. Reports success; failures go to the sticky error.
func (h *PEHost) hydrate(ref ElemRef, s *elemSlot) bool {
	ch, ok := h.peekCold(ref)
	if !ok {
		return false
	}
	c := h.cold
	c.bytes -= int64(len(c.packed[ref]))
	delete(c.packed, ref)
	c.hydrates++
	s.ch = ch
	h.live++
	h.coldTouch(ref)
	return true
}

// liveSlot returns ref's slot with a constructed chare in it, hydrating a
// packed element first; nil when this PE does not hold ref or hydration
// failed.
func (h *PEHost) liveSlot(ref ElemRef) *elemSlot {
	s := h.slot(ref)
	if s == nil || (s.ch == nil && !h.hydrate(ref, s)) {
		return nil
	}
	return s
}

// peekCold rebuilds a packed element transiently — without installing it
// in the live set — for read-only walks like checkpointing.
func (h *PEHost) peekCold(ref ElemRef) (Chare, bool) {
	c := h.cold
	if c == nil {
		return nil, false
	}
	data, ok := c.packed[ref]
	if !ok {
		return nil, false
	}
	ch, err := c.rebuild(ref)
	if err != nil {
		c.fail(fmt.Errorf("core: cold store on PE %d: rebuild %v: %w", h.pe, ref, err))
		return nil, false
	}
	m, ok := ch.(Migratable)
	if !ok {
		c.fail(fmt.Errorf("core: cold store on PE %d: element %v rebuilt as non-Migratable %T", h.pe, ref, ch))
		return nil, false
	}
	if err := PUPUnpack(m, data); err != nil {
		c.fail(fmt.Errorf("core: cold store on PE %d: unpack %v: %w", h.pe, ref, err))
		return nil, false
	}
	return ch, true
}

func (c *coldStore) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
