package balance

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/topology"
)

func mkStats(t *testing.T, numPE int, loads map[int][]time.Duration) *core.LBStats {
	t.Helper()
	topo, err := topology.TwoClusters(numPE, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.LBStats{NumPE: numPE, Topo: topo}
	idx := 0
	for pe := 0; pe < numPE; pe++ {
		for _, l := range loads[pe] {
			s.Elems = append(s.Elems, core.ElemLoad{
				Ref: core.ElemRef{Array: 0, Index: idx}, PE: pe, Load: l,
			})
			idx++
		}
	}
	return s
}

// apply computes post-plan per-PE loads.
func apply(s *core.LBStats, moves []core.Move) []time.Duration {
	dest := make(map[core.ElemRef]int)
	for _, m := range moves {
		dest[m.Ref] = m.ToPE
	}
	loads := make([]time.Duration, s.NumPE)
	for _, e := range s.Elems {
		pe := e.PE
		if d, ok := dest[e.Ref]; ok {
			pe = d
		}
		loads[pe] += e.Load
	}
	return loads
}

func imbalance(loads []time.Duration) float64 {
	var max, sum time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}

func TestGreedyBalances(t *testing.T) {
	// Everything piled on PE 0.
	loads := map[int][]time.Duration{0: {}}
	for i := 0; i < 32; i++ {
		loads[0] = append(loads[0], time.Duration(1+i%5)*time.Millisecond)
	}
	s := mkStats(t, 4, loads)
	moves := Greedy{}.Plan(s)
	after := apply(s, moves)
	if ib := imbalance(after); ib > 1.2 {
		t.Errorf("greedy imbalance %v after plan", ib)
	}
	if len(moves) == 0 {
		t.Error("greedy produced no moves for a fully skewed input")
	}
}

// Property: greedy (LPT scheduling) achieves the provable makespan
// guarantee max(pmax, mean + (1-1/m)*p(m+1)), where p(m+1) is the
// (m+1)-th largest element. The critical PE's last-assigned element
// cannot be among the first m (those each land on an empty PE), so it is
// at most p(m+1); when it was assigned, its PE had the minimum load,
// which is at most the mean. The folklore 4/3 bound is relative to the
// true optimum and does NOT hold against max(mean, pmax) — e.g. five
// equal elements on four PEs force one PE to take two, and the optimum
// itself exceeds 4/3 of that lower bound.
func TestGreedyLPTBoundProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numPE := 2 * (1 + rng.Intn(4))
		loads := map[int][]time.Duration{}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			pe := rng.Intn(numPE)
			loads[pe] = append(loads[pe], time.Duration(1+rng.Intn(1000))*time.Microsecond)
		}
		topo, err := topology.TwoClusters(numPE, 0)
		if err != nil {
			return false
		}
		s := &core.LBStats{NumPE: numPE, Topo: topo}
		idx := 0
		var total time.Duration
		var all []time.Duration
		for pe, ls := range loads {
			for _, l := range ls {
				s.Elems = append(s.Elems, core.ElemLoad{Ref: core.ElemRef{Index: idx}, PE: pe, Load: l})
				total += l
				all = append(all, l)
				idx++
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
		after := apply(s, Greedy{}.Plan(s))
		var maxA time.Duration
		for pe := 0; pe < numPE; pe++ {
			if after[pe] > maxA {
				maxA = after[pe]
			}
		}
		mean := float64(total) / float64(numPE)
		var pm1 time.Duration // (m+1)-th largest, 0 when n <= m
		if len(all) > numPE {
			pm1 = all[numPE]
		}
		bound := mean + (1-1/float64(numPE))*float64(pm1)
		if pmax := float64(all[0]); pmax > bound {
			bound = pmax
		}
		return float64(maxA) <= bound+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRefineMovesLittle(t *testing.T) {
	loads := map[int][]time.Duration{}
	// Nearly balanced: each PE has 10ms except PE 0 with 14ms.
	for pe := 0; pe < 4; pe++ {
		for i := 0; i < 10; i++ {
			loads[pe] = append(loads[pe], time.Millisecond)
		}
	}
	loads[0] = append(loads[0], 2*time.Millisecond, 2*time.Millisecond)
	s := mkStats(t, 4, loads)

	rMoves := Refine{}.Plan(s)
	gMoves := Greedy{}.Plan(s)
	if len(rMoves) >= len(gMoves) {
		t.Errorf("refine moved %d elements, greedy %d; refine should perturb less", len(rMoves), len(gMoves))
	}
	after := apply(s, rMoves)
	if ib := imbalance(after); ib > 1.25 {
		t.Errorf("refine left imbalance %v", ib)
	}
}

func TestRefineNoMovesWhenBalanced(t *testing.T) {
	loads := map[int][]time.Duration{}
	for pe := 0; pe < 4; pe++ {
		loads[pe] = []time.Duration{5 * time.Millisecond}
	}
	s := mkStats(t, 4, loads)
	if moves := (Refine{}).Plan(s); len(moves) != 0 {
		t.Errorf("refine moved %d elements on balanced input", len(moves))
	}
	// Degenerate: zero total load.
	z := mkStats(t, 2, map[int][]time.Duration{0: {0}})
	if moves := (Refine{}).Plan(z); len(moves) != 0 {
		t.Errorf("refine moved elements with zero load")
	}
}

func TestGridKeepsClustersAndSpreadsBorder(t *testing.T) {
	topo, err := topology.TwoClusters(8, 4*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.LBStats{NumPE: 8, Topo: topo}
	// 8 border chares all on PE 3 (cluster 0), 8 on PE 4 (cluster 1),
	// plus interior chares scattered.
	idx := 0
	add := func(pe, wan int, load time.Duration) {
		s.Elems = append(s.Elems, core.ElemLoad{
			Ref: core.ElemRef{Array: 0, Index: idx}, PE: pe, Load: load, WanMsgs: wan,
		})
		idx++
	}
	for i := 0; i < 8; i++ {
		add(3, 5, time.Millisecond)
		add(4, 5, time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		add(i%8, 0, 2*time.Millisecond)
	}
	moves := Grid{}.Plan(s)

	dest := make(map[core.ElemRef]int)
	for _, m := range moves {
		dest[m.Ref] = m.ToPE
	}
	borderPerPE := make(map[int]int)
	for _, e := range s.Elems {
		pe := e.PE
		if d, ok := dest[e.Ref]; ok {
			pe = d
		}
		// Invariant: no chare changes cluster.
		if topo.Cluster(pe) != topo.Cluster(e.PE) {
			t.Fatalf("grid LB moved %v across clusters (%d -> %d)", e.Ref, e.PE, pe)
		}
		if e.WanMsgs > 0 {
			borderPerPE[pe]++
		}
	}
	// 8 border chares over 4 PEs per cluster: exactly 2 each.
	for pe, n := range borderPerPE {
		if n != 2 {
			t.Errorf("PE %d holds %d border chares, want 2", pe, n)
		}
	}
	if len(borderPerPE) != 8 {
		t.Errorf("border chares on %d PEs, want all 8", len(borderPerPE))
	}
}

func TestGridNilTopo(t *testing.T) {
	if moves := (Grid{}).Plan(&core.LBStats{NumPE: 2}); moves != nil {
		t.Error("grid planned moves without a topology")
	}
}

func TestGreedySpeedAware(t *testing.T) {
	topo, err := topology.TwoClusters(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// PEs 2,3 run at half speed.
	if err := topo.SetClusterSpeed(1, 0.5); err != nil {
		t.Fatal(err)
	}
	s := &core.LBStats{NumPE: 4, Topo: topo}
	// 12 equal elements, all measured on fast PE 0.
	for i := 0; i < 12; i++ {
		s.Elems = append(s.Elems, core.ElemLoad{Ref: core.ElemRef{Index: i}, PE: 0, Load: time.Millisecond})
	}
	moves := Greedy{}.Plan(s)
	counts := make([]int, 4)
	dest := make(map[core.ElemRef]int)
	for _, m := range moves {
		dest[m.Ref] = m.ToPE
	}
	for _, e := range s.Elems {
		pe := e.PE
		if d, ok := dest[e.Ref]; ok {
			pe = d
		}
		counts[pe]++
	}
	// Completion-time balance over speeds (1,1,0.5,0.5): fast PEs should
	// get twice the elements of slow PEs (4,4,2,2).
	if counts[0] != 4 || counts[1] != 4 || counts[2] != 2 || counts[3] != 2 {
		t.Errorf("speed-aware distribution = %v, want [4 4 2 2]", counts)
	}
}

func TestIntrinsicLoadNormalization(t *testing.T) {
	topo, err := topology.TwoClusters(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetPESpeed(1, 0.5); err != nil {
		t.Fatal(err)
	}
	s := &core.LBStats{NumPE: 2, Topo: topo, Elems: []core.ElemLoad{
		{Ref: core.ElemRef{Index: 0}, PE: 0, Load: 2 * time.Millisecond},
		{Ref: core.ElemRef{Index: 1}, PE: 1, Load: 2 * time.Millisecond}, // measured on a half-speed PE
	}}
	out := intrinsicLoads(s)
	if out[0].Load != 2*time.Millisecond {
		t.Errorf("fast-PE load changed: %v", out[0].Load)
	}
	if out[1].Load != time.Millisecond {
		t.Errorf("slow-PE load not normalized: %v, want 1ms", out[1].Load)
	}
	// Without a topology, identity.
	s2 := &core.LBStats{NumPE: 2, Elems: s.Elems}
	out2 := intrinsicLoads(s2)
	if out2[1].Load != 2*time.Millisecond {
		t.Error("normalization applied without topology")
	}
}

// funcChare for integration testing.
type funcChare func(ctx *core.Ctx, entry core.EntryID, data any)

func (f funcChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) { f(ctx, entry, data) }

// PUP implements core.Migratable with no state, so the balancers can
// migrate funcChare elements in integration tests.
func (f funcChare) PUP(*core.PUP) {}

// TestGreedyEndToEndImprovesMakespan runs a deliberately imbalanced
// program through an AtSync round on the virtual-time engine and checks
// the post-balance phase is faster than the pre-balance phase.
func TestGreedyEndToEndImprovesMakespan(t *testing.T) {
	topo, err := topology.TwoClusters(4, 0, topology.WithIntraLink(topology.Link{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetClusterPairLink(0, 1, topology.Link{}); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var phase2Start, phase2 time.Duration
	prog := &core.Program{
		Arrays: []core.ArraySpec{{
			ID: 0, N: n,
			// All elements start on PE 0: maximal imbalance.
			Map: func(int, int) int { return 0 },
			New: func(i int) core.Chare {
				return funcChare(func(ctx *core.Ctx, entry core.EntryID, data any) {
					switch entry {
					case 0: // phase 1 work, then sync
						ctx.Charge(time.Millisecond)
						ctx.AtSync()
					case core.EntryResumeFromSync: // phase 2 work
						ctx.Contribute(float64(ctx.Time()), core.OpMax)
						ctx.Charge(time.Millisecond)
						ctx.Contribute(1.0, core.OpSum)
					}
				})
			},
		}},
		Start: func(ctx *core.Ctx) {
			for i := 0; i < n; i++ {
				ctx.Send(core.ElemRef{Array: 0, Index: i}, 0, nil)
			}
		},
		OnReduction: func(ctx *core.Ctx, a core.ArrayID, seq int64, v any) {
			switch seq {
			case 1:
				phase2Start = time.Duration(v.(float64))
			case 2:
				phase2 = ctx.Time() - phase2Start
				ctx.ExitWith(nil)
			}
		},
		LB: &core.LBConfig{Arrays: []core.ArrayID{0}, Strategy: Greedy{}},
	}
	e, err := sim.New(topo, prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Phase 1 ran all n elements serially on PE 0 (~n ms); after greedy
	// balancing, phase 2 runs them 4-wide (~n/4 ms plus protocol time).
	phase1 := time.Duration(n) * time.Millisecond
	if phase2 <= 0 || phase2 >= phase1/2 {
		t.Errorf("post-LB phase %v, pre-LB phase %v: balancing did not help", phase2, phase1)
	}
}
