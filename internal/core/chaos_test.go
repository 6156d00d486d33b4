package core_test

import (
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// End-to-end chaos acceptance tests: real programs (the stencil benchmark,
// a ping-pong exchange) over two runtimes joined by the real TCP
// transport, with seeded faults injected below the reliability layer and a
// forced mid-run disconnect. The assertions are outcome invariants —
// exactly-once, in-order delivery and bit-identical results versus a
// fault-free run — which hold for any interleaving of the same seeded
// fault schedule; the schedule itself is seed-deterministic (see
// vmi.TestChaosSameSeedSameFaultSchedule).

// coreChaosSeed mirrors vmi's chaos seed plumbing: GRIDMDO_CHAOS_SEED
// replays a schedule, and the seed in use is always logged.
func coreChaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("GRIDMDO_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GRIDMDO_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed: %d (set GRIDMDO_CHAOS_SEED=%d to replay)", seed, seed)
	return seed
}

// withFaults installs faults[node] below node's reliability layer,
// inside its repair envelope.
func withFaults(faults [2][]vmi.SendDevice) func(int, *vmi.ChainBuilder) {
	return func(node int, b *vmi.ChainBuilder) { b.Faults(faults[node]...) }
}

// runPair runs the pair (node 0 as coordinator) and returns node 0's
// result. The worker node is stopped once the coordinator finishes, as
// cmd/gridnode's coordinator shutdown announcement does; its exit status
// is not part of the verdict.
func runPair(t *testing.T, h *core.TCPPair, timeout time.Duration) (any, error) {
	t.Helper()
	v, err := h.RunWithin(timeout)
	var werr *core.NodeError
	if errors.As(err, &werr) {
		err = nil
	}
	return v, err
}

// dropConnSoon severs the node0→node1 connection as soon as one exists
// (polling, since the transport dials lazily) and reports whether it
// managed to within the window.
func dropConnSoon(h *core.TCPPair, window time.Duration) <-chan bool {
	done := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			if h.Nodes[0].Stack.TCP().DropConn(1) {
				done <- true
				return
			}
			time.Sleep(time.Millisecond)
		}
		done <- false
	}()
	return done
}

func stencilParams() *stencil.Params {
	// 30 steps over a 2ms WAN keeps the run alive for tens of
	// milliseconds, so the forced disconnect (fired as soon as the first
	// ghost exchange dials the link) lands mid-run, with plenty of later
	// traffic to repair.
	return &stencil.Params{Width: 64, Height: 64, VX: 2, VY: 2, Steps: 30, Warmup: 0}
}

func stencilProg(t *testing.T) func(int) *core.Program {
	return func(int) *core.Program {
		prog, err := stencil.BuildProgram(stencilParams())
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
}

// TestChaosStencilBitIdentical is the acceptance run: a stencil over
// TwoClusters with 5% seeded drop on both send paths plus one forced TCP
// disconnect completes and produces a checksum bit-identical to the
// fault-free run. (All reduction fold points combine at most two
// contributions, and IEEE-754 addition is commutative, so the checksum is
// independent of message arrival order — any bit difference means frames
// were lost, duplicated, or corrupted.)
func TestChaosStencilBitIdentical(t *testing.T) {
	seed := coreChaosSeed(t)
	topoFor := func() *topology.Topology {
		topo, err := topology.TwoClusters(2, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}

	// Fault-free baseline: same wiring, no faults.
	base := core.NewTCPPair(t, topoFor(), stencilProg(t), vmi.ReliableConfig{}, nil, nil)
	bv, err := runPair(t, base, 30*time.Second)
	if err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}
	baseRes, ok := bv.(*stencil.Result)
	if !ok {
		t.Fatalf("fault-free result = %T, want *stencil.Result", bv)
	}

	// Chaos run: 5% drop under the reliability layer on both nodes, plus a
	// forced disconnect as soon as the WAN link is up.
	fd0 := vmi.NewFaultDevice(seed, vmi.FaultPlan{Drop: 0.05})
	fd1 := vmi.NewFaultDevice(seed+1, vmi.FaultPlan{Drop: 0.05})
	defer fd0.Close()
	defer fd1.Close()
	chaos := core.NewTCPPair(t, topoFor(), stencilProg(t), vmi.ReliableConfig{RTO: 5 * time.Millisecond},
		withFaults([2][]vmi.SendDevice{{fd0}, {fd1}}), nil)
	dropped := dropConnSoon(chaos, 10*time.Second)
	cv, err := runPair(t, chaos, 60*time.Second)
	if err != nil {
		t.Fatalf("chaos run failed (seed %d): %v", seed, err)
	}
	if !<-dropped {
		t.Fatal("forced disconnect never found a live connection to sever")
	}
	chaosRes, ok := cv.(*stencil.Result)
	if !ok {
		t.Fatalf("chaos result = %T, want *stencil.Result", cv)
	}

	if math.Float64bits(chaosRes.Checksum) != math.Float64bits(baseRes.Checksum) {
		t.Errorf("checksum diverged under chaos (seed %d): %x (%.17g) vs fault-free %x (%.17g)",
			seed, math.Float64bits(chaosRes.Checksum), chaosRes.Checksum,
			math.Float64bits(baseRes.Checksum), baseRes.Checksum)
	}
	if fd0.Stats().Dropped == 0 && fd1.Stats().Dropped == 0 {
		t.Error("chaos run dropped no frames; the schedule never exercised the reliability layer")
	}
	relStats := [2]vmi.ReliableStats{chaos.Nodes[0].Stack.Reliable().Stats(), chaos.Nodes[1].Stack.Reliable().Stats()}
	if relStats[0].Retransmits+relStats[1].Retransmits == 0 {
		t.Error("drops and a disconnect produced zero retransmits; the reliability layer never repaired anything")
	}
	if relStats[0].TransportErrs == 0 {
		t.Error("forced disconnect was not absorbed as a transport error on node 0")
	}
	t.Logf("faults 0→1: %+v, 1→0: %+v", fd0.Stats(), fd1.Stats())
	t.Logf("repairs node 0: %+v, node 1: %+v", relStats[0], relStats[1])
}

// pingChare bounces a counter between two elements, recording every value
// it receives so the test can check exactly-once, in-order delivery at the
// application layer.
type pingChare struct {
	rec   *pingRecorder
	limit int
	hook  func(n int) // if non-nil, runs before the reply to n is sent
}

type pingRecorder struct {
	mu   sync.Mutex
	seen map[int][]int // element index -> values received, in order
}

func (c *pingChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	n := data.(int)
	idx := ctx.Elem().Index
	c.rec.mu.Lock()
	c.rec.seen[idx] = append(c.rec.seen[idx], n)
	c.rec.mu.Unlock()
	if n >= c.limit {
		ctx.ExitWith(n)
		return
	}
	if c.hook != nil {
		c.hook(n)
	}
	ctx.Send(core.ElemRef{Array: 0, Index: 1 - idx}, 0, n+1)
}

// pingPongExactlyOnce bounces a counter from 0 to 60 between the two
// nodes of a pair built with rel and mod, calling hook(pair, n) on the
// receiving node before each reply, and checks that element 0 saw exactly
// 0,2,...,60 and element 1 exactly 1,3,...,59. A lost message would stall
// the exchange, a duplicate would repeat a value, reordering would break
// monotonicity.
func pingPongExactlyOnce(t *testing.T, rel vmi.ReliableConfig, mod func(int, *vmi.ChainBuilder),
	hook func(h *core.TCPPair, n int)) *core.TCPPair {
	t.Helper()
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 60 // even: the exchange ends on element 0 (node 0)
	rec := &pingRecorder{seen: make(map[int][]int)}
	var h *core.TCPPair
	mkProg := func(int) *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) core.Chare {
					c := &pingChare{rec: rec, limit: limit}
					if hook != nil {
						c.hook = func(n int) { hook(h, n) }
					}
					return c
				},
			}},
			Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 0) },
		}
	}
	h = core.NewTCPPair(t, topo, mkProg, rel, mod, nil)
	v, err := runPair(t, h, 60*time.Second)
	if err != nil {
		t.Fatalf("ping-pong failed: %v", err)
	}
	if v.(int) != limit {
		t.Errorf("final value = %v, want %d", v, limit)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	for idx, first := range map[int]int{0: 0, 1: 1} {
		var want []int
		for v := first; v <= limit; v += 2 {
			want = append(want, v)
		}
		got := rec.seen[idx]
		if len(got) != len(want) {
			t.Fatalf("element %d received %d values, want %d: %v", idx, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("element %d value %d = %d, want %d", idx, i, got[i], want[i])
			}
		}
	}
	return h
}

// TestChaosPingPongExactlyOnce: a ping-pong over a fully faulty link
// (drops, duplicates, reordering, corruption) still delivers each message
// exactly once and in order.
func TestChaosPingPongExactlyOnce(t *testing.T) {
	seed := coreChaosSeed(t)
	plan := vmi.FaultPlan{Drop: 0.1, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.1}
	fd0 := vmi.NewFaultDevice(seed, plan)
	fd1 := vmi.NewFaultDevice(seed+1, plan)
	defer fd0.Close()
	defer fd1.Close()
	pingPongExactlyOnce(t, vmi.ReliableConfig{RTO: 5 * time.Millisecond},
		withFaults([2][]vmi.SendDevice{{fd0}, {fd1}}), nil)
	if s := fd0.Stats(); s.Dropped+s.Duplicated+s.Reordered+s.Corrupted == 0 {
		t.Error("fault schedule injected nothing; the run proved nothing")
	}
}

// TestChaosCorruptWireRepaired: garbage injected into the byte stream
// mid-run breaks the VMI framing, so the receiving reader drops the
// connection and whatever was queued behind the garbage with it; the
// reliability layer absorbs the reader error, the exchange continues over
// a re-dialed connection (retransmitting what was lost), and the
// ping-pong still delivers each value exactly once.
func TestChaosCorruptWireRepaired(t *testing.T) {
	const at = 21 // odd: element 1, on node 1, receives it
	h := pingPongExactlyOnce(t, vmi.ReliableConfig{RTO: 5 * time.Millisecond}, nil,
		func(h *core.TCPPair, n int) {
			if n != at {
				return
			}
			// The garbage goes ahead of the reply on node 1's stream to node 0.
			if err := h.Nodes[1].Stack.TCP().CorruptWire(0); err != nil {
				t.Errorf("CorruptWire: %v", err)
			}
		})
	if s := h.Nodes[0].Stack.Reliable().Stats(); s.TransportErrs == 0 {
		t.Error("node 0's reader error was not absorbed as a transport error")
	}
	reconnects := h.Regs[0].Snapshot().Value("vmi_tcp_reconnects_total") +
		h.Regs[1].Snapshot().Value("vmi_tcp_reconnects_total")
	if reconnects == 0 {
		t.Error("the exchange finished without re-dialing the broken connection")
	}
}

// swapStrategy moves every element to the other PE of a two-PE machine —
// the smallest plan in which both evict→arrive legs cross the process
// boundary (and, on TwoClusters(2), the WAN).
type swapStrategy struct{}

func (swapStrategy) Plan(stats *core.LBStats) []core.Move {
	var moves []core.Move
	for _, e := range stats.Elems {
		moves = append(moves, core.Move{Ref: e.Ref, ToPE: 1 - e.PE})
	}
	return moves
}

// migPing is a migratable ping-pong element: the counter exchange of
// pingChare plus an AtSync barrier at syncVal, after which the balancer
// swaps both elements across the node boundary. Pending — the value to
// send when the balancing round resumes — is the element's only PUP
// state; the recorder tracks values and PEs for the test's assertions.
type migPing struct {
	rec            *migPingRecorder
	limit, syncVal int
	Pending        int // value to send at ResumeFromSync; -1 = none
}

type migPingRecorder struct {
	mu   sync.Mutex
	vals map[int][]int // element index -> values received, in order
	pes  map[int][]int // element index -> PE that processed each value
}

func (c *migPing) PUP(p *core.PUP) { p.Int(&c.Pending) }

func (c *migPing) Recv(ctx *core.Ctx, entry core.EntryID, data any) {
	idx := ctx.Elem().Index
	if entry == core.EntryResumeFromSync {
		if c.Pending >= 0 {
			v := c.Pending
			c.Pending = -1
			ctx.Send(core.ElemRef{Array: 0, Index: 1 - idx}, 0, v)
		}
		return
	}
	n := data.(int)
	c.rec.mu.Lock()
	c.rec.vals[idx] = append(c.rec.vals[idx], n)
	c.rec.pes[idx] = append(c.rec.pes[idx], ctx.PE())
	c.rec.mu.Unlock()
	switch {
	case n >= c.limit:
		ctx.ExitWith(n)
	case n == c.syncVal:
		// Hold the reply across the balancing round; everything sent to
		// this element has been received, so it is safe to pack.
		c.Pending = n + 1
		ctx.AtSync()
	default:
		ctx.Send(core.ElemRef{Array: 0, Index: 1 - idx}, 0, n+1)
		if n+1 == c.syncVal {
			// This element's part of the exchange is done until the round
			// completes: enter the barrier with nothing pending.
			ctx.AtSync()
		}
	}
}

// TestChaosLBMigrationExactlyOnce is the migration acceptance run: a
// balancing round that swaps both elements across the two-process (and
// WAN) boundary completes under seeded drops repaired by the reliability
// layer, every message before and after the swap is delivered exactly
// once and in order, and both nodes' location tables agree on the new
// placement.
func TestChaosLBMigrationExactlyOnce(t *testing.T) {
	seed := coreChaosSeed(t)
	topo, err := topology.TwoClusters(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// limit odd: the final value lands on element 1, which the swap moved
	// to PE 0, so the exchange ends on the coordinator node. syncVal odd
	// for the same reason — element 1 receives it and holds the reply.
	const limit, syncVal = 41, 21
	rec := &migPingRecorder{vals: make(map[int][]int), pes: make(map[int][]int)}
	mkProg := func(int) *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 2,
				New: func(i int) core.Chare {
					return &migPing{rec: rec, limit: limit, syncVal: syncVal, Pending: -1}
				},
			}},
			Start: func(ctx *core.Ctx) { ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 0) },
			LB:    &core.LBConfig{Arrays: []core.ArrayID{0}, Strategy: swapStrategy{}},
		}
	}
	fd0 := vmi.NewFaultDevice(seed, vmi.FaultPlan{Drop: 0.1})
	fd1 := vmi.NewFaultDevice(seed+1, vmi.FaultPlan{Drop: 0.1})
	defer fd0.Close()
	defer fd1.Close()
	h := core.NewTCPPair(t, topo, mkProg, vmi.ReliableConfig{RTO: 5 * time.Millisecond},
		withFaults([2][]vmi.SendDevice{{fd0}, {fd1}}), nil)
	v, err := runPair(t, h, 60*time.Second)
	if err != nil {
		t.Fatalf("chaos LB migration run failed (seed %d): %v", seed, err)
	}
	if v.(int) != limit {
		t.Errorf("final value = %v, want %d", v, limit)
	}

	// Exactly-once, in-order delivery around the migration: element 0 saw
	// exactly 0,2,...,40, element 1 exactly 1,3,...,41, and each element's
	// processing PE flipped exactly once, at the balancing round.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for idx, first := range map[int]int{0: 0, 1: 1} {
		var want []int
		for v := first; v <= limit; v += 2 {
			want = append(want, v)
		}
		got := rec.vals[idx]
		if len(got) != len(want) {
			t.Fatalf("element %d received %d values, want %d (seed %d): %v", idx, len(got), len(want), seed, got)
		}
		flips := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("element %d value %d = %d, want %d (seed %d)", idx, i, got[i], want[i], seed)
			}
			if got[i] <= syncVal && rec.pes[idx][i] != idx {
				t.Errorf("element %d processed pre-sync value %d on PE %d, want %d", idx, got[i], rec.pes[idx][i], idx)
			}
			if got[i] > syncVal+1 && rec.pes[idx][i] != 1-idx {
				t.Errorf("element %d processed post-sync value %d on PE %d, want %d", idx, got[i], rec.pes[idx][i], 1-idx)
			}
			if i > 0 && rec.pes[idx][i] != rec.pes[idx][i-1] {
				flips++
			}
		}
		if flips != 1 {
			t.Errorf("element %d changed PE %d times, want exactly once: %v", idx, flips, rec.pes[idx])
		}
	}

	// Both processes agree the elements swapped.
	for i := 0; i < 2; i++ {
		ref := core.ElemRef{Array: 0, Index: i}
		pe0, pe1 := h.Nodes[0].Runtime.Locations().PEOf(ref), h.Nodes[1].Runtime.Locations().PEOf(ref)
		if pe0 != pe1 {
			t.Errorf("element %d: node 0 places it on PE %d, node 1 on PE %d", i, pe0, pe1)
		}
		if int(pe0) != 1-i {
			t.Errorf("element %d on PE %d after the swap, want PE %d", i, pe0, 1-i)
		}
	}

	// The counters prove one round with two migrations, repaired drops
	// underneath.
	if v := h.Regs[0].Snapshot().Value("core_lb_rounds_total"); v != 1 {
		t.Errorf("core_lb_rounds_total = %d, want 1", v)
	}
	if v := h.Regs[0].Snapshot().Value("core_lb_moves_total"); v != 2 {
		t.Errorf("core_lb_moves_total = %d, want 2", v)
	}
	if fd0.Stats().Dropped+fd1.Stats().Dropped == 0 {
		t.Error("chaos schedule dropped nothing; the run proved nothing")
	}
	rel := [2]vmi.ReliableStats{h.Nodes[0].Stack.Reliable().Stats(), h.Nodes[1].Stack.Reliable().Stats()}
	if rel[0].Retransmits+rel[1].Retransmits == 0 {
		t.Error("drops produced zero retransmits; the reliability layer never repaired anything")
	}
	t.Logf("faults 0→1: %+v, 1→0: %+v; repairs: %+v / %+v", fd0.Stats(), fd1.Stats(), rel[0], rel[1])
}

// sinkChare counts one-directional deliveries for the metrics
// consistency run.
type sinkChare struct{ got *atomic.Int64 }

func (c *sinkChare) Recv(ctx *core.Ctx, entry core.EntryID, data any) { c.got.Add(1) }

// TestChaosMetricsConsistent drives strictly one-directional traffic
// (node 0 → node 1, so the faulty send path carries only data frames,
// never acks) through seeded faults and checks that the metrics balance:
// every wire transmission — original, retransmission, or fault-injected
// duplicate — is either dropped by the fault device or arrives at the
// receiver, where it is delivered exactly once or suppressed as a
// duplicate —
//
//	DataSent + Retransmits + Duplicated − Dropped == Delivered + DupDropped
//
// and that the registries both nodes share with their stacks report the
// same numbers as the device stats.
func TestChaosMetricsConsistent(t *testing.T) {
	seed := coreChaosSeed(t)
	const n = 80

	runCase := func(t *testing.T, plan vmi.FaultPlan, rto time.Duration) (vmi.FaultStats, vmi.ReliableStats, vmi.ReliableStats, *core.TCPPair) {
		t.Helper()
		topo, err := topology.TwoClusters(2, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var got atomic.Int64
		mkProg := func(int) *core.Program {
			return &core.Program{
				Arrays: []core.ArraySpec{{
					ID: 0, N: 2,
					New: func(i int) core.Chare { return &sinkChare{got: &got} },
				}},
				Start: func(ctx *core.Ctx) {
					for i := 0; i < n; i++ {
						ctx.Send(core.ElemRef{Array: 0, Index: 1}, 0, i)
					}
				},
			}
		}
		fd := vmi.NewFaultDevice(seed, plan)
		t.Cleanup(fd.Close)
		h := core.NewTCPPair(t, topo, mkProg, vmi.ReliableConfig{RTO: rto},
			withFaults([2][]vmi.SendDevice{{fd}, nil}), nil)
		errs := make(chan error, 2)
		for node := 0; node < 2; node++ {
			node := node
			go func() {
				_, err := h.Nodes[node].Runtime.Run()
				errs <- err
			}()
		}
		rel0, rel1 := h.Nodes[0].Stack.Reliable(), h.Nodes[1].Stack.Reliable()
		deadline := time.Now().Add(30 * time.Second)
		for {
			s0, s1 := rel0.Stats(), rel1.Stats()
			fs := fd.Stats()
			if got.Load() == n && rel0.Outstanding(1) == 0 &&
				s0.DataSent+s0.Retransmits+fs.Duplicated-fs.Dropped == s1.Delivered+s1.DupDropped {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("metrics never converged (seed %d): faults %+v, sender %+v, receiver %+v, delivered %d/%d",
					seed, fd.Stats(), s0, s1, got.Load(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
		h.Nodes[0].Runtime.Stop()
		h.Nodes[1].Runtime.Stop()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("run failed (seed %d): %v", seed, err)
			}
		}
		return fd.Stats(), rel0.Stats(), rel1.Stats(), h
	}

	// seriesValue reads one labeled series out of a snapshot.
	seriesValue := func(t *testing.T, reg *metrics.Registry, name, labelSub string) int64 {
		t.Helper()
		for _, s := range reg.Snapshot().Series {
			if s.Name == name && strings.Contains(s.Labels, labelSub) {
				return s.Value
			}
		}
		t.Fatalf("series %s{%s} not in snapshot", name, labelSub)
		return 0
	}

	t.Run("duplicates", func(t *testing.T) {
		// A long RTO keeps retransmits out of the picture, so every
		// duplicate the fault device injects must surface as exactly one
		// dup-drop at the receiver.
		fault, send, recv, h := runCase(t, vmi.FaultPlan{Duplicate: 0.2}, 2*time.Second)
		if fault.Duplicated == 0 {
			t.Fatalf("fault schedule duplicated nothing (seed %d); the run proved nothing", seed)
		}
		if send.Retransmits != 0 {
			t.Fatalf("spurious retransmits (%d) with a 2s RTO (seed %d)", send.Retransmits, seed)
		}
		if recv.DupDropped != fault.Duplicated {
			t.Errorf("receiver dropped %d duplicates, fault device injected %d (seed %d)",
				recv.DupDropped, fault.Duplicated, seed)
		}
		if send.DataSent != n || recv.Delivered != n {
			t.Errorf("sent %d / delivered %d, want %d exactly-once (seed %d)", send.DataSent, recv.Delivered, n, seed)
		}
		// Registry series must agree with the device stats they expose.
		if v := h.Regs[1].Snapshot().Value("vmi_rel_dup_dropped_total"); v != recv.DupDropped {
			t.Errorf("registry vmi_rel_dup_dropped_total = %d, stats say %d", v, recv.DupDropped)
		}
		if v := seriesValue(t, h.Regs[0], "vmi_fault_injected_total", `kind="duplicate"`); v != fault.Duplicated {
			t.Errorf("registry vmi_fault_injected_total{kind=duplicate} = %d, stats say %d", v, fault.Duplicated)
		}
		if v := h.Regs[1].Snapshot().Value("core_msgs_processed_total"); v != n {
			t.Errorf("registry core_msgs_processed_total on receiver = %d, want %d", v, n)
		}
	})

	t.Run("drops", func(t *testing.T) {
		fault, send, recv, h := runCase(t, vmi.FaultPlan{Drop: 0.1}, 5*time.Millisecond)
		if fault.Dropped == 0 {
			t.Fatalf("fault schedule dropped nothing (seed %d); the run proved nothing", seed)
		}
		if send.Retransmits < fault.Dropped {
			t.Errorf("%d retransmits cannot have repaired %d drops (seed %d)", send.Retransmits, fault.Dropped, seed)
		}
		if send.DataSent != n || recv.Delivered != n {
			t.Errorf("sent %d / delivered %d, want %d exactly-once (seed %d)", send.DataSent, recv.Delivered, n, seed)
		}
		if v := h.Regs[0].Snapshot().Value("vmi_rel_retransmits_total"); v != send.Retransmits {
			t.Errorf("registry vmi_rel_retransmits_total = %d, stats say %d", v, send.Retransmits)
		}
		if v := seriesValue(t, h.Regs[0], "vmi_fault_injected_total", `kind="drop"`); v != fault.Dropped {
			t.Errorf("registry vmi_fault_injected_total{kind=drop} = %d, stats say %d", v, fault.Dropped)
		}
	})
}
