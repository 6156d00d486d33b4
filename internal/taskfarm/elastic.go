package taskfarm

import (
	"sync"

	"gridmdo/internal/core"
)

// Elastic farming: the farm keeps running while the node set
// changes underneath it (core/membership.go). The division of labor:
//
//   - Placement: with Elastic set, the root and every dispatcher shard
//     are pinned to the membership coordinator's PEs, and workers are
//     block-mapped over the PEs of the *initially Active* nodes only.
//     A joiner therefore starts empty; it picks up work when recovery
//     re-homes workers onto it.
//
//   - Notification: a Notifier registered as Membership.OnChange turns
//     each table change into per-chare messages (entryMembers to every
//     shard, entryMembersRoot to the root). Because the dispatchers all
//     live on the coordinator process, only the coordinator's Notifier
//     sends; other processes just track worker placement.
//
//   - Death: a dead node's workers are re-homed by the membership layer
//     before OnChange fires, so by the time a shard sees the Requeue
//     list, its lost workers already have live PEs. The shard pushes the
//     lost outstanding ranges back onto the front of its pending deque
//     and refills — each lost task is counted exactly once: a result
//     settles only ranges still outstanding at its worker (shard.settle),
//     so an answer that beats the epoch fence, or comes from the new home
//     for a grant made before the shard learned of the death, either
//     settles its own grant or, once its ranges were re-queued, nothing.
//
//   - Drain: shards stop granting to workers on a Draining node and
//     report to the root as each such worker's outstanding count reaches
//     zero. When the root has a report for every worker the node hosted,
//     it calls Params.OnDrained — wired to Membership.NotifyDrained —
//     and the node is marked Left; its (now idle) workers are re-homed
//     fresh and granting to them resumes. Undispatched tasks are never
//     blocked on a drain: they simply wait for the re-home.

// ElasticConfig ties a farm to the cluster's membership geometry.
type ElasticConfig struct {
	// NodeOf maps a PE to its owning node (same map the cluster config
	// uses).
	NodeOf func(pe int) int
	// ActiveNode reports whether a node is Active in the *initial*
	// member table; placement only targets these nodes' PEs.
	ActiveNode func(node int) bool
	// CoordNode is the membership coordinator's node; the root and all
	// dispatcher shards are pinned to its PEs.
	CoordNode int
}

// activePEs lists the PEs placement may target, in ascending order.
func (e *ElasticConfig) activePEs(numPE int) []int {
	var out []int
	for pe := 0; pe < numPE; pe++ {
		if e.ActiveNode(e.NodeOf(pe)) {
			out = append(out, pe)
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// coordPEs lists the coordinator node's PEs, in ascending order.
func (e *ElasticConfig) coordPEs(numPE int) []int {
	var out []int
	for pe := 0; pe < numPE; pe++ {
		if e.NodeOf(pe) == e.CoordNode {
			out = append(out, pe)
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// The notification payloads never cross the wire: the notifier and the
// dispatchers share the coordinator process, so the messages ride the
// local queues with Data intact and need no payload codec.

// shardMembersMsg tells a shard how its owned workers stand after a
// table change. All slices are wLo-relative.
type shardMembersMsg struct {
	Grantable []bool  // grants may flow to this worker
	Drain     []int32 // node being drained under this worker, or -1
	Requeue   []int32 // workers whose outstanding grants died with their node
}

// rootMembersMsg tells the root how many workers a draining node hosts —
// the number of drain-clear reports to await before the drain completes.
type rootMembersMsg struct {
	DrainNode int32
	Expect    int32
}

// drainClearMsg reports that one draining worker's outstanding grants
// reached zero. Worker is the absolute index (the root's idempotence
// key — repeated clears for the same worker collapse).
type drainClearMsg struct {
	Node   int32
	Worker int32
}

// Notifier adapts Membership.OnChange to the farm's chares. Register
// OnChange on the MembershipConfig, then Bind the runtime once it
// exists; table changes arriving before Bind are ignored (the initial
// placement already reflects the initial table).
type Notifier struct {
	p *Params

	mu         sync.Mutex
	rt         *core.Runtime
	self       int
	workerNode []int // last known node of each worker (absolute index)
	prev       map[int32]core.MemberState
}

// NewNotifier builds a notifier for an elastic farm (Params.Elastic must
// be set).
func NewNotifier(p *Params) *Notifier {
	return &Notifier{p: p}
}

// Bind attaches the runtime and snapshots worker placement. selfNode is
// this process's node number.
func (n *Notifier) Bind(rt *core.Runtime, selfNode int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rt, n.self = rt, selfNode
	loc := rt.Locations()
	n.workerNode = make([]int, n.p.Workers)
	for w := range n.workerNode {
		n.workerNode[w] = n.p.Elastic.NodeOf(int(loc.PEOf(core.ElemRef{Array: ArrayWorker, Index: w})))
	}
}

// OnChange is the Membership.OnChange hook. It runs on the membership
// apply path — after the epoch fence and element recovery, so worker
// locations already reflect the new table when it reads them.
func (n *Notifier) OnChange(t core.MemberTable) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rt == nil {
		return
	}
	e := n.p.Elastic
	state := make(map[int32]core.MemberState, len(t.Members))
	var dead, drain []int32
	for _, mb := range t.Members {
		state[mb.Node] = mb.State
		if pv, seen := n.prev[mb.Node]; seen && pv == mb.State {
			continue
		}
		switch mb.State {
		case core.MemberDead:
			dead = append(dead, mb.Node)
		case core.MemberDraining:
			drain = append(drain, mb.Node)
		}
	}
	if n.prev == nil {
		n.prev = make(map[int32]core.MemberState, len(t.Members))
	}
	for nd, st := range state {
		n.prev[nd] = st
	}
	loc := n.rt.Locations()
	if n.self != e.CoordNode {
		// No dispatchers here; just keep the placement snapshot fresh.
		for w := range n.workerNode {
			n.workerNode[w] = e.NodeOf(int(loc.PEOf(core.ElemRef{Array: ArrayWorker, Index: w})))
		}
		return
	}
	nw, ns := n.p.Workers, n.p.shards()
	// Drain expectations go to the root before any shard can report a
	// clear (the clears are triggered by the shard messages below).
	for _, dn := range drain {
		var cnt int32
		for w := 0; w < nw; w++ {
			if int32(n.workerNode[w]) == dn {
				cnt++
			}
		}
		n.rt.Post(core.ElemRef{Array: ArrayMaster, Index: 0}, entryMembersRoot,
			rootMembersMsg{DrainNode: dn, Expect: cnt})
	}
	for s := 0; s < ns; s++ {
		wLo, wHi := s*nw/ns, (s+1)*nw/ns
		mm := shardMembersMsg{
			Grantable: make([]bool, wHi-wLo),
			Drain:     make([]int32, wHi-wLo),
		}
		for w := wLo; w < wHi; w++ {
			cur := e.NodeOf(int(loc.PEOf(core.ElemRef{Array: ArrayWorker, Index: w})))
			st := state[int32(cur)]
			mm.Grantable[w-wLo] = st == core.MemberActive
			mm.Drain[w-wLo] = -1
			if st == core.MemberDraining {
				mm.Drain[w-wLo] = int32(cur)
			}
			for _, dn := range dead {
				if int32(n.workerNode[w]) == dn {
					mm.Requeue = append(mm.Requeue, int32(w-wLo))
				}
			}
			n.workerNode[w] = cur
		}
		n.rt.Post(core.ElemRef{Array: ArrayShard, Index: s}, entryMembers, mm)
	}
}
