package core

import (
	"fmt"
	"sort"
)

// Element recovery off dead or drained nodes. The membership layer
// (membership.go) decides *when* a node's PEs must be evacuated; this file
// implements *how*: a deterministic plan every process computes
// identically, applied to the local location table immediately and to the
// owning PE's host via a KindMember scheduler message — PEHost is only
// touched by its own scheduler goroutine, so construction cannot happen
// on the membership apply path directly.
//
// Application messages can outrun the construction message (a dispatcher
// on another node may target the re-homed element the moment it applies
// the same table), so the scheduler parks app messages addressed to an
// element that is expected-but-not-yet-constructed and replays them, in
// arrival order, right after the KindMember construction runs.

// PlanDrain deterministically re-homes every element currently on an
// evacuating PE onto the least-loaded alive PE (ties break toward the
// lowest PE number). All processes of a run call it with identical
// inputs — the shared location table and the member table's PE
// predicates — and therefore compute identical plans, keeping their
// location tables in agreement without any extra coordination. It is
// exported for tests and tools.
func PlanDrain(loc *Locations, arrays []ArrayID, numPE int, evac func(pe int) bool, alive func(pe int) bool) []Move {
	var targets []int
	load := make(map[int]int)
	for pe := 0; pe < numPE; pe++ {
		if alive(pe) && !evac(pe) {
			targets = append(targets, pe)
			for _, a := range arrays {
				load[pe] += loc.LocalCount(a, pe)
			}
		}
	}
	if len(targets) == 0 {
		return nil
	}
	sort.Ints(targets)
	var moves []Move
	for _, a := range arrays {
		for pe := 0; pe < numPE; pe++ {
			if !evac(pe) {
				continue
			}
			for _, ref := range loc.ElementsOn(a, pe) {
				best := targets[0]
				for _, t := range targets[1:] {
					if load[t] < load[best] {
						best = t
					}
				}
				load[best]++
				moves = append(moves, Move{Ref: ref, ToPE: best})
			}
		}
	}
	return moves
}

// recoverNode applies the drain plan for a node's PEs: location moves on
// this process's table, plus KindMember construction messages for every
// element re-homed onto a local PE. A KindMember message carries no
// payload and never crosses the wire: each process enqueues its own share
// of the plan locally. Returns the number of elements re-homed. Safe to
// call from any goroutine.
func (rt *Runtime) recoverNode(deadPEs []int, alive func(pe int) bool) int {
	if len(deadPEs) == 0 {
		return 0
	}
	evac := make(map[int]bool, len(deadPEs))
	for _, pe := range deadPEs {
		evac[pe] = true
	}
	arrays := make([]ArrayID, len(rt.prog.Arrays))
	for i := range rt.prog.Arrays {
		arrays[i] = rt.prog.Arrays[i].ID
	}
	moves := PlanDrain(rt.loc, arrays, rt.topo.NumPE(), func(pe int) bool { return evac[pe] }, alive)
	for _, mv := range moves {
		if mv.ToPE >= rt.opts.PELo && mv.ToPE < rt.opts.PEHi {
			// Expected-arrival mark before the location move: once the move
			// is visible, other goroutines route app messages at the new PE,
			// and they must find the parking slot armed.
			rt.expectArrival(mv.Ref)
			rt.sentByPE[mv.ToPE].Add(1)
			rt.enqueueLocal(&Message{
				Kind: KindMember, To: mv.Ref,
				SrcPE: int32(mv.ToPE), DstPE: int32(mv.ToPE), ID: rt.msgSeq.Add(1),
			})
		}
		if _, err := rt.loc.Move(mv.Ref, mv.ToPE); err != nil {
			rt.fail(err)
			return len(moves)
		}
	}
	return len(moves)
}

// expectArrival arms message parking for an element about to be
// constructed on a local PE.
func (rt *Runtime) expectArrival(ref ElemRef) {
	rt.arrMu.Lock()
	if rt.arriving == nil {
		rt.arriving = make(map[ElemRef][]*Message)
	}
	if _, ok := rt.arriving[ref]; !ok {
		rt.arriving[ref] = nil
	}
	rt.arrMu.Unlock()
}

// parkIfArriving buffers an app message for an element this PE does not
// host yet but is expecting from recovery, and so keeps it: the scheduler
// does not release a message parkIfArriving took. Runs on the PE
// scheduler.
func (rt *Runtime) parkIfArriving(ps *peState, m *Message) bool {
	if ps.host.Has(m.To) {
		return false
	}
	rt.arrMu.Lock()
	defer rt.arrMu.Unlock()
	if rt.arriving == nil {
		return false
	}
	parked, ok := rt.arriving[m.To]
	if !ok {
		return false
	}
	rt.arriving[m.To] = append(parked, m)
	return true
}

// takeArrivals disarms parking for ref and returns the buffered messages.
func (rt *Runtime) takeArrivals(ref ElemRef) []*Message {
	rt.arrMu.Lock()
	defer rt.arrMu.Unlock()
	parked, ok := rt.arriving[ref]
	if ok {
		delete(rt.arriving, ref)
	}
	return parked
}

// handleMember runs a KindMember construction on the owning PE's
// scheduler: build the element with its array's constructor, install it,
// and replay any messages that arrived early.
func (rt *Runtime) handleMember(ps *peState, m *Message) error {
	ref := m.To
	a := int(ref.Array)
	if a < 0 || a >= len(rt.prog.Arrays) {
		return fmt.Errorf("core: recovering element %v names unknown array", ref)
	}
	if !ps.host.Has(ref) {
		ps.host.AddElement(ref, rt.prog.Arrays[a].New(ref.Index))
	}
	for _, pm := range rt.takeArrivals(ref) {
		if _, err := ps.host.DeliverApp(pm); err != nil {
			return err
		}
	}
	return nil
}
