package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"gridmdo/internal/topology"
)

// This file implements the AtSync load-balancing protocol from the
// Charm++ model the paper relies on ("a suite of measurement-based load
// balancers ... the migration capability"). Elements opt in by calling
// Ctx.AtSync; when every participating element on a PE has synced, the PE
// reports measured per-element loads to PE 0; PE 0 runs a pluggable
// Strategy over the gathered statistics, orchestrates the migrations, and
// resumes every element via EntryResumeFromSync.
//
// Element state crosses the evict→arrive leg as PUP-packed bytes, so a
// migration between gridnode processes is just another KindLB message
// over the Reliable/TCP chain. The resume broadcast carries the round's
// validated moves; every PE applies them (idempotently) to its node's
// location table before resuming, so all nodes agree on ownership before
// application traffic restarts.
//
// Strategies themselves (greedy, refine, and the paper's grid-aware
// balancer) live in internal/balance.

// LBConfig enables load balancing for a program.
type LBConfig struct {
	// Arrays lists the chare arrays that participate in AtSync.
	Arrays []ArrayID
	// Strategy plans migrations from gathered statistics.
	Strategy Strategy
}

// ElemLoad is one element's measured statistics for a balancing round.
type ElemLoad struct {
	Ref     ElemRef
	PE      int
	Load    time.Duration // busy time since the previous round
	Msgs    int           // messages sent
	WanMsgs int           // messages sent across the WAN
}

// LBStats is the global view handed to a Strategy.
type LBStats struct {
	NumPE int
	Topo  *topology.Topology
	Elems []ElemLoad // sorted by (Array, Index) for determinism
}

// Move is one planned migration.
type Move struct {
	Ref  ElemRef
	ToPE int
}

// Strategy plans migrations. Implementations must be deterministic
// functions of their input.
type Strategy interface {
	Plan(stats *LBStats) []Move
}

// lbPhase tags KindLB protocol messages.
type lbPhase uint8

const (
	lbStats  lbPhase = iota // PE -> root: local element statistics
	lbEvict                 // root -> source PE: migrate listed elements
	lbArrive                // source PE -> dest PE: element in flight
	lbAck                   // dest PE -> root: element installed
	lbResume                // root -> all PEs: apply moves, deliver ResumeFromSync
)

// lbMsg is the KindLB payload. It is registered under a runtime tag
// (tagLB), so migrations need no registration from the application: an
// evicted element's state crosses as the bytes its own PUP method packed.
type lbMsg struct {
	Phase lbPhase
	Stats []ElemLoad // lbStats
	Moves []Move     // lbEvict; lbResume (the round's validated moves)
	Elem  ElemRef    // lbArrive
	State []byte     // lbArrive: PUP-packed element state
	Meta  *elemMeta  // lbArrive
}

// lbMetaBytes is the modeled size of an elemMeta in flight.
const lbMetaBytes = 33

// PayloadBytes implements Sizer. Unlike the old fixed formula, it counts
// the serialized element state, so the delay device, bandwidth model, and
// per-flow metrics see honest migration traffic.
func (m lbMsg) PayloadBytes() int {
	n := 32 + 48*len(m.Stats) + 16*len(m.Moves) + len(m.State)
	if m.Meta != nil {
		n += lbMetaBytes
	}
	return n
}

// PUP is the protocol message's wire form; each phase leaves the fields
// it does not use empty, which cost a byte apiece.
func (m *lbMsg) PUP(p *PUP) {
	PUPUvarint(p, &m.Phase)
	PUPSlice(p, &m.Stats, 6, 0, (*ElemLoad).pup)
	PUPSlice(p, &m.Moves, 3, 0, (*Move).pup)
	m.Elem.pup(p)
	p.Bytes(&m.State)
	has := m.Meta != nil
	p.Bool(&has)
	if !has || p.Err() != nil {
		return
	}
	if p.Unpacking() {
		m.Meta = new(elemMeta)
	}
	p.Varint(&m.Meta.redSeq)
	PUPVarint(p, &m.Meta.load)
	PUPVarint(p, &m.Meta.wanMsg)
	PUPVarint(p, &m.Meta.msgs)
	p.Bool(&m.Meta.atSync)
}

func (r *ElemRef) pup(p *PUP) {
	PUPVarint(p, &r.Array)
	PUPVarint(p, &r.Index)
}

func (l *ElemLoad) pup(p *PUP) {
	l.Ref.pup(p)
	PUPVarint(p, &l.PE)
	PUPVarint(p, &l.Load)
	PUPVarint(p, &l.Msgs)
	PUPVarint(p, &l.WanMsgs)
}

func (mv *Move) pup(p *PUP) {
	mv.Ref.pup(p)
	PUPVarint(p, &mv.ToPE)
}

// LBMgr drives the protocol on one PE. All methods run on the PE's
// scheduler. The root-side state lives only on PE 0.
type LBMgr struct {
	pe   int
	cfg  *LBConfig
	topo *topology.Topology
	loc  *Locations
	host *PEHost
	prog *Program
	emit func(m *Message)

	// root state
	reports   []ElemLoad
	reported  map[int]bool
	expected  int
	pendAcks  int
	pendMoves []Move

	// counters read by metrics scrapers on other goroutines
	rounds     atomic.Int64
	totalMoves atomic.Int64
}

// NewLBMgr builds a load-balancing manager for pe. prog is needed to
// construct arriving elements before unpacking their migrated state.
func NewLBMgr(pe int, cfg *LBConfig, topo *topology.Topology, loc *Locations, host *PEHost, prog *Program, emit func(*Message)) *LBMgr {
	return &LBMgr{pe: pe, cfg: cfg, topo: topo, loc: loc, host: host, prog: prog, emit: emit, reported: make(map[int]bool)}
}

// Rounds reports how many balancing rounds have completed (root only).
// Safe to call from any goroutine.
func (l *LBMgr) Rounds() int { return int(l.rounds.Load()) }

// TotalMoves reports how many migrations all rounds performed in total
// (root only). Safe to call from any goroutine.
func (l *LBMgr) TotalMoves() int { return int(l.totalMoves.Load()) }

// ElementAtSync is called by the backend each time a local element enters
// the barrier. When the whole PE is at sync, it reports statistics.
func (l *LBMgr) ElementAtSync() {
	if l.cfg == nil {
		return
	}
	if !l.host.AllAtSync(l.cfg.Arrays) {
		return
	}
	stats := l.host.StatsAndReset(l.cfg.Arrays)
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Ref.Array != stats[j].Ref.Array {
			return stats[i].Ref.Array < stats[j].Ref.Array
		}
		return stats[i].Ref.Index < stats[j].Ref.Index
	})
	l.emit(&Message{
		Kind: KindLB, SrcPE: int32(l.pe), DstPE: 0,
		Data:  lbMsg{Phase: lbStats, Stats: stats},
		Bytes: lbMsg{Stats: stats}.PayloadBytes(),
	})
}

// Handle processes a KindLB protocol message.
func (l *LBMgr) Handle(m *Message) error {
	p, ok := m.Data.(lbMsg)
	if !ok {
		return fmt.Errorf("core: KindLB message with payload %T", m.Data)
	}
	switch p.Phase {
	case lbStats:
		return l.rootCollect(int(m.SrcPE), p.Stats)
	case lbEvict:
		return l.evict(p.Moves)
	case lbArrive:
		return l.arrive(p)
	case lbAck:
		return l.rootAck()
	case lbResume:
		return l.resumeAll(p.Moves)
	}
	return fmt.Errorf("core: unknown LB phase %d", p.Phase)
}

func (l *LBMgr) participatingPEs() int {
	n := 0
	for pe := 0; pe < l.topo.NumPE(); pe++ {
		for _, a := range l.cfg.Arrays {
			if l.loc.LocalCount(a, pe) > 0 {
				n++
				break
			}
		}
	}
	return n
}

func (l *LBMgr) rootCollect(fromPE int, stats []ElemLoad) error {
	if l.pe != 0 {
		return fmt.Errorf("core: LB stats arrived at PE %d", l.pe)
	}
	if l.reported[fromPE] {
		return fmt.Errorf("core: duplicate LB report from PE %d", fromPE)
	}
	if len(l.reported) == 0 {
		l.expected = l.participatingPEs()
	}
	l.reported[fromPE] = true
	l.reports = append(l.reports, stats...)
	if len(l.reported) < l.expected {
		return nil
	}

	// Everyone is at sync: plan.
	sort.Slice(l.reports, func(i, j int) bool {
		if l.reports[i].Ref.Array != l.reports[j].Ref.Array {
			return l.reports[i].Ref.Array < l.reports[j].Ref.Array
		}
		return l.reports[i].Ref.Index < l.reports[j].Ref.Index
	})
	moves := l.cfg.Strategy.Plan(&LBStats{NumPE: l.topo.NumPE(), Topo: l.topo, Elems: l.reports})
	l.reports, l.reported = nil, make(map[int]bool)
	l.rounds.Add(1)

	// Drop no-op and invalid moves.
	valid := moves[:0]
	for _, mv := range moves {
		if mv.ToPE < 0 || mv.ToPE >= l.topo.NumPE() {
			continue
		}
		if int(l.loc.PEOf(mv.Ref)) == mv.ToPE {
			continue
		}
		valid = append(valid, mv)
	}
	moves = valid
	l.totalMoves.Add(int64(len(moves)))

	if len(moves) == 0 {
		return l.broadcastResume(nil)
	}
	l.pendAcks = len(moves)
	l.pendMoves = append([]Move(nil), moves...)
	// Group by source PE and dispatch evictions.
	bySrc := make(map[int32][]Move)
	var srcs []int32
	for _, mv := range moves {
		src := l.loc.PEOf(mv.Ref)
		if _, ok := bySrc[src]; !ok {
			srcs = append(srcs, src)
		}
		bySrc[src] = append(bySrc[src], mv)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		l.emit(&Message{
			Kind: KindLB, SrcPE: 0, DstPE: src,
			Data:  lbMsg{Phase: lbEvict, Moves: bySrc[src]},
			Bytes: lbMsg{Moves: bySrc[src]}.PayloadBytes(),
		})
	}
	return nil
}

// evict packs and ships the listed elements. It validates and packs every
// move before mutating anything, so a bad plan (missing element,
// unpackable state, out-of-range destination) leaves the host and the
// location table untouched and returns one aggregated error.
func (l *LBMgr) evict(moves []Move) error {
	states := make([][]byte, len(moves))
	var errs []error
	for i, mv := range moves {
		s := l.host.slot(mv.Ref)
		if s == nil {
			errs = append(errs, fmt.Errorf("missing element %v", mv.Ref))
			continue
		}
		if mv.ToPE < 0 || mv.ToPE >= l.topo.NumPE() {
			errs = append(errs, fmt.Errorf("element %v bound for out-of-range PE %d", mv.Ref, mv.ToPE))
			continue
		}
		m, ok := s.ch.(Migratable)
		if !ok {
			errs = append(errs, fmt.Errorf("element %v of type %T is not Migratable", mv.Ref, s.ch))
			continue
		}
		if n := l.host.ParkedMessages(mv.Ref); n > 0 {
			errs = append(errs, fmt.Errorf("element %v has %d undelivered buffered messages", mv.Ref, n))
			continue
		}
		state, err := PUPPack(m)
		if err != nil {
			errs = append(errs, fmt.Errorf("pack %v: %w", mv.Ref, err))
			continue
		}
		states[i] = state
	}
	if len(errs) > 0 {
		return fmt.Errorf("core: PE %d evict aborted, no elements migrated: %w", l.pe, errors.Join(errs...))
	}
	for i, mv := range moves {
		meta, _ := l.host.removeElement(mv.Ref)
		if _, err := l.loc.Move(mv.Ref, mv.ToPE); err != nil {
			return err
		}
		msg := lbMsg{Phase: lbArrive, Elem: mv.Ref, State: states[i], Meta: meta}
		l.emit(&Message{
			Kind: KindLB, SrcPE: int32(l.pe), DstPE: int32(mv.ToPE),
			Data: msg, Bytes: msg.PayloadBytes(),
		})
	}
	return nil
}

// arrive rebuilds a migrated element from its PUP-packed state: the
// array's constructor makes a fresh element for the index, then the
// packed bytes are unpacked into it.
func (l *LBMgr) arrive(p lbMsg) error {
	a := int(p.Elem.Array)
	if a < 0 || a >= len(l.prog.Arrays) {
		return fmt.Errorf("core: arriving element %v names unknown array", p.Elem)
	}
	ch := l.prog.Arrays[a].New(p.Elem.Index)
	m, ok := ch.(Migratable)
	if !ok {
		return fmt.Errorf("core: arriving element %v constructed as non-Migratable %T", p.Elem, ch)
	}
	if err := PUPUnpack(m, p.State); err != nil {
		return fmt.Errorf("core: unpack arriving element %v: %w", p.Elem, err)
	}
	// Record the new owner in this node's table now; the resume broadcast
	// re-applies the same move idempotently on every other node.
	if _, err := l.loc.Move(p.Elem, l.pe); err != nil {
		return err
	}
	l.host.addElementWithMeta(p.Elem, ch, p.Meta)
	l.emit(&Message{
		Kind: KindLB, SrcPE: int32(l.pe), DstPE: 0,
		Data:  lbMsg{Phase: lbAck},
		Bytes: 32,
	})
	return nil
}

func (l *LBMgr) rootAck() error {
	l.pendAcks--
	if l.pendAcks > 0 {
		return nil
	}
	moves := l.pendMoves
	l.pendMoves = nil
	return l.broadcastResume(moves)
}

func (l *LBMgr) broadcastResume(moves []Move) error {
	for pe := 0; pe < l.topo.NumPE(); pe++ {
		msg := lbMsg{Phase: lbResume, Moves: moves}
		l.emit(&Message{
			Kind: KindLB, SrcPE: 0, DstPE: int32(pe),
			Data: msg, Bytes: msg.PayloadBytes(),
		})
	}
	return nil
}

// resumeAll applies the round's moves to this node's location table —
// idempotent where the evict/arrive legs already did — then delivers
// ResumeFromSync to every local element. Applying moves before resuming
// means no PE restarts application traffic with a stale view of where
// the migrated elements live.
func (l *LBMgr) resumeAll(moves []Move) error {
	for _, mv := range moves {
		if _, err := l.loc.Move(mv.Ref, mv.ToPE); err != nil {
			return err
		}
	}
	for _, a := range l.cfg.Arrays {
		for _, ref := range l.loc.ElementsOn(a, l.pe) {
			if err := l.host.ResumeFromSync(ref); err != nil {
				return err
			}
		}
	}
	return nil
}
