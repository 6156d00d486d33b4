package sim

import (
	"sort"

	"gridmdo/internal/core"
)

// Bundling (Options.Bundle) holds the application messages one handler
// sends and ships them, when it completes, as one core.MakeBundle frame
// per destination PE. Bundles are split back into their messages at the
// destination's enqueue point, so scheduler semantics are unchanged
// except that a bundle's messages share one arrival instant (they already
// shared one departure).
//
// Only default-priority application messages bundle; prioritized traffic
// (including WAN-prioritized messages) and runtime protocol messages are
// routed individually so their delivery ordering guarantees hold.

// bundleEligible reports whether a message may join a bundle.
func bundleEligible(m *core.Message) bool {
	return m.Kind == core.KindApp && m.Prio == 0 && m.DstPE != m.SrcPE
}

// pendingBundles accumulates one handler's outgoing messages per
// destination PE. It is owned by the shard executing its PE and never
// shared.
type pendingBundles struct {
	byDst map[int32][]*core.Message
}

func newPendingBundles() *pendingBundles {
	return &pendingBundles{byDst: make(map[int32][]*core.Message)}
}

// add appends a routed (destination-resolved) message.
func (p *pendingBundles) add(m *core.Message) {
	p.byDst[m.DstPE] = append(p.byDst[m.DstPE], m)
}

// empty reports whether anything is buffered.
func (p *pendingBundles) empty() bool { return len(p.byDst) == 0 }

// has reports whether a destination already has a pending group.
func (p *pendingBundles) has(dst int32) bool {
	_, ok := p.byDst[dst]
	return ok
}

// drain returns the accumulated messages grouped per destination in
// ascending PE order (for deterministic virtual-time replay) and resets
// the buffer.
func (p *pendingBundles) drain() [][]*core.Message {
	if len(p.byDst) == 0 {
		return nil
	}
	dsts := make([]int32, 0, len(p.byDst))
	for d := range p.byDst {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	out := make([][]*core.Message, 0, len(dsts))
	for _, d := range dsts {
		out = append(out, p.byDst[d])
		delete(p.byDst, d)
	}
	return out
}
