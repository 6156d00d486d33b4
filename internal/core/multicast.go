package core

import (
	"fmt"
	"sync"

	"gridmdo/internal/trace"
)

// Section multicast on the real-time runtime. Charm++ delivers a section
// multicast as one message per destination PE; so does this runtime for
// the PEs of other processes. The members that one remote PE hosts travel
// as one KindMulticast message, which carries the payload once and each
// member's ElemRef and trace ID; the receiving node fans it out into
// ordinary app messages (Runtime.fanOut). Everything that counts messages
// still counts members: each one is a sent and a processed message with
// its own ID, EvSend, EvEnqueue, EvBegin and EvEnd.

// mcastBody is the payload of a KindMulticast message.
type mcastBody struct {
	Data    any
	Members []mcastMember
}

// mcastMember is one member of a KindMulticast message: the element, and
// the trace ID its app message was assigned at send.
type mcastMember struct {
	Ref ElemRef
	ID  uint64
}

// mcastPool holds member lists between multicasts: the sender releases
// one once its message is encoded, the receiver once it has fanned out.
var mcastPool = sync.Pool{New: func() any { return new(mcastBody) }}

func newMcastBody(data any) *mcastBody {
	mc := mcastPool.Get().(*mcastBody)
	mc.Data = data
	return mc
}

func releaseMcastBody(mc *mcastBody) {
	mc.Data = nil
	mc.Members = mc.Members[:0]
	mcastPool.Put(mc)
}

// Multicast implements Backend. A member on a PE of this process, and the
// only member a remote PE hosts, is routed as Ctx.Send routes it. The k ≥ 2
// members a remote PE hosts go as one KindMulticast message.
func (rt *Runtime) Multicast(src int, members []ElemRef, entry EntryID, data any) (wan int) {
	if rt.opts.Transport == nil {
		return SendEach(rt, src, members, entry, data) // every PE is local
	}
	ps := rt.pes[src-rt.opts.PELo]
	if ps.mcRemote == nil {
		ps.mcRemote = make([]int32, rt.topo.NumPE())
	}
	dsts := ps.mcDst[:0]
	for _, ref := range members {
		d := rt.loc.PEOf(ref)
		dsts = append(dsts, d)
		if !rt.local(d) {
			ps.mcRemote[d]++
		}
	}
	ps.mcDst = dsts
	// Members go in section order; a remote PE's group goes at its first
	// member. mcRemote[d] drops to 0 once PE d's members are sent, which
	// leaves the scratch zeroed for the next multicast.
	for i, d := range dsts {
		if rt.topo.CrossesWAN(src, int(d)) {
			wan++
		}
		if rt.local(d) {
			SendEach(rt, src, members[i:i+1], entry, data)
			continue
		}
		switch ps.mcRemote[d] {
		case 0:
			// Sent with its PE's group.
		case 1:
			ps.mcRemote[d] = 0
			SendEach(rt, src, members[i:i+1], entry, data)
		default:
			ps.mcRemote[d] = 0
			rt.sendGroup(ps, d, members[i:], dsts[i:], entry, data)
		}
	}
	return wan
}

// sendGroup sends, as one KindMulticast message from ps, the members that
// PE dst hosts; dsts[j] is the PE of members[j]. Each member is assigned
// its ID and counted as sent here, as Route would.
func (rt *Runtime) sendGroup(ps *peState, dst int32, members []ElemRef, dsts []int32, entry EntryID, data any) {
	parent := ps.curMsg.Load()
	bytes := payloadBytes(data)
	mc := newMcastBody(data)
	for j, ref := range members {
		if dsts[j] != dst {
			continue
		}
		id := rt.msgSeq.Add(1)
		mc.Members = append(mc.Members, mcastMember{Ref: ref, ID: id})
		rt.sentByPE[ps.id].Add(1)
		if rt.sink != nil {
			rt.sink.Record(trace.Event{PE: ps.id, Kind: trace.EvSend, At: rt.Now(), MsgID: id, Parent: parent, MsgKind: byte(KindApp), Arg1: int64(dst), Arg2: int64(bytes)})
		}
	}
	m := NewMessage()
	m.Kind, m.Entry, m.Data = KindMulticast, entry, mc
	m.SrcPE, m.DstPE, m.Parent = int32(ps.id), dst, parent
	m.Bytes = bytes + mcastMemberLen*len(mc.Members)
	rt.transmit(m)
}

// fanOut enqueues one app message per member of a KindMulticast message m
// decoded on its destination PE, and releases m. The members share the
// one decoded payload, as the members of an in-process multicast share
// the sender's value.
func (rt *Runtime) fanOut(m *Message) error {
	mc, ok := m.Data.(*mcastBody)
	if !ok {
		err := fmt.Errorf("%w: multicast message with payload %T", ErrBadWire, m.Data)
		rt.fail(err)
		return err
	}
	for _, mb := range mc.Members {
		am := NewMessage()
		am.Kind, am.To, am.Entry, am.Data = KindApp, mb.Ref, m.Entry, mc.Data
		am.SrcPE, am.DstPE, am.ID, am.Parent = m.SrcPE, m.DstPE, mb.ID, m.Parent
		rt.enqueueLocal(am)
	}
	releaseMcastBody(mc)
	ReleaseMessage(m)
	return nil
}
