// Package balance provides measurement-based load-balancing strategies
// for GridMDO's AtSync protocol (core.Strategy implementations): the
// classic greedy and refinement balancers of the Charm++ suite, and the
// paper's §6 grid-aware balancer, which "uses the strategy of simply
// distributing the chares that communicate across high-latency wide-area
// connections evenly among the processors within a cluster" and never
// migrates a chare to a remote cluster.
package balance

import (
	"container/heap"
	"sort"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// peLoad tracks one PE's accumulating planned load.
type peLoad struct {
	pe   int
	load time.Duration
}

type peHeap []peLoad

func (h peHeap) Len() int { return len(h) }
func (h peHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].pe < h[j].pe // deterministic tie-break
}
func (h peHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *peHeap) Push(x any)   { *h = append(*h, x.(peLoad)) }
func (h *peHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// sortByLoadDesc orders elements by decreasing load with a deterministic
// identity tie-break.
func sortByLoadDesc(elems []core.ElemLoad) []core.ElemLoad {
	out := append([]core.ElemLoad(nil), elems...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load > out[j].Load
		}
		if out[i].Ref.Array != out[j].Ref.Array {
			return out[i].Ref.Array < out[j].Ref.Array
		}
		return out[i].Ref.Index < out[j].Ref.Index
	})
	return out
}

// intrinsicLoads converts measured loads (which include the measuring
// PE's speed factor) back to reference-machine cost, so plans remain
// correct on heterogeneous machines. With homogeneous PEs this is the
// identity.
func intrinsicLoads(stats *core.LBStats) []core.ElemLoad {
	out := append([]core.ElemLoad(nil), stats.Elems...)
	if stats.Topo == nil {
		return out
	}
	for i := range out {
		if s := stats.Topo.PESpeed(out[i].PE); s != 1 {
			out[i].Load = time.Duration(float64(out[i].Load) * s)
		}
	}
	return out
}

// speedOf reads a PE's speed factor, defaulting to 1 without a topology.
func speedOf(stats *core.LBStats, pe int) float64 {
	if stats.Topo == nil {
		return 1
	}
	return stats.Topo.PESpeed(pe)
}

// assign places elems (intrinsic loads, already sorted) onto the PEs in
// the heap, minimizing each element's effective completion time
// (assigned load divided by PE speed), and appends the necessary moves.
func assign(stats *core.LBStats, h *peHeap, elems []core.ElemLoad, moves []core.Move) []core.Move {
	for _, e := range elems {
		tgt := heap.Pop(h).(peLoad)
		if tgt.pe != e.PE {
			moves = append(moves, core.Move{Ref: e.Ref, ToPE: tgt.pe})
		}
		// The heap orders by effective time: accumulate load scaled by
		// the inverse speed of the hosting PE.
		tgt.load += time.Duration(float64(e.Load) / speedOf(stats, tgt.pe))
		heap.Push(h, tgt)
	}
	return moves
}

// Greedy is the classic Charm++ GreedyLB: elements sorted by decreasing
// load are assigned, one by one, to the PE with the least effective load
// (accounting for per-PE speed factors). It ignores cluster boundaries
// (and so may schedule chares across the WAN).
type Greedy struct{}

// Plan implements core.Strategy.
func (Greedy) Plan(stats *core.LBStats) []core.Move {
	h := make(peHeap, 0, stats.NumPE)
	for pe := 0; pe < stats.NumPE; pe++ {
		h = append(h, peLoad{pe: pe})
	}
	heap.Init(&h)
	return assign(stats, &h, sortByLoadDesc(intrinsicLoads(stats)), nil)
}

// Refine is a RefineLB-style strategy: it moves elements only off PEs
// whose load exceeds the mean by Tolerance (default 5%), preferring the
// lightest movable elements, so it perturbs placement far less than
// Greedy.
type Refine struct {
	// Tolerance is the allowed overload fraction above the mean; zero
	// means 0.05.
	Tolerance float64
}

// Plan implements core.Strategy.
func (r Refine) Plan(stats *core.LBStats) []core.Move {
	tol := r.Tolerance
	if tol == 0 {
		tol = 0.05
	}
	loads := make([]time.Duration, stats.NumPE)
	byPE := make([][]core.ElemLoad, stats.NumPE)
	var total time.Duration
	for _, e := range stats.Elems {
		loads[e.PE] += e.Load
		byPE[e.PE] = append(byPE[e.PE], e)
		total += e.Load
	}
	if stats.NumPE == 0 || total == 0 {
		return nil
	}
	mean := total / time.Duration(stats.NumPE)
	limit := mean + time.Duration(float64(mean)*tol)

	// Under-loaded PEs as a min-heap of current load.
	h := make(peHeap, 0, stats.NumPE)
	for pe := 0; pe < stats.NumPE; pe++ {
		h = append(h, peLoad{pe: pe, load: loads[pe]})
	}
	heap.Init(&h)

	var moves []core.Move
	for pe := 0; pe < stats.NumPE; pe++ {
		if loads[pe] <= limit {
			continue
		}
		// Lightest-first makes each move a small correction.
		elems := sortByLoadDesc(byPE[pe])
		for i := len(elems) - 1; i >= 0 && loads[pe] > limit; i-- {
			e := elems[i]
			tgt := heap.Pop(&h).(peLoad)
			if tgt.pe == pe || tgt.load+e.Load > limit {
				heap.Push(&h, tgt)
				break // no useful destination
			}
			moves = append(moves, core.Move{Ref: e.Ref, ToPE: tgt.pe})
			loads[pe] -= e.Load
			tgt.load += e.Load
			heap.Push(&h, tgt)
		}
	}
	return moves
}

// Grid is the paper's grid-aware balancer. Within each cluster,
// independently: the chares that communicate across the wide area
// ("border" chares, identified by WanMsgs > 0) are spread evenly over the
// cluster's PEs first; the remaining chares are then placed greedily on
// top. No chare ever changes cluster.
type Grid struct{}

// Plan implements core.Strategy.
func (Grid) Plan(stats *core.LBStats) []core.Move {
	if stats.Topo == nil {
		return nil
	}
	var moves []core.Move
	elems := intrinsicLoads(stats)
	for c := 0; c < stats.Topo.NumClusters(); c++ {
		pes := stats.Topo.PEs(topology.ClusterID(c))
		var border, interior []core.ElemLoad
		for _, e := range elems {
			if int(stats.Topo.Cluster(e.PE)) != c {
				continue
			}
			if e.WanMsgs > 0 {
				border = append(border, e)
			} else {
				interior = append(interior, e)
			}
		}
		h := make(peHeap, 0, len(pes))
		for _, pe := range pes {
			h = append(h, peLoad{pe: pe})
		}
		heap.Init(&h)
		// Border chares first — "distributed evenly among the processors
		// within a cluster" — then interior chares greedily.
		moves = assign(stats, &h, sortByLoadDesc(border), moves)
		moves = assign(stats, &h, sortByLoadDesc(interior), moves)
	}
	return moves
}
