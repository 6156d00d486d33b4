package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// Chaos membership suite: elastic clusters — joins, drains, and deaths
// injected mid-run under seeded frame drops — must finish with results
// bit-identical to an undisturbed static cluster. The schedules are
// seed-deterministic ({join, drain, kill} order and spacing derive from
// the chaos seed), fenced traffic from a zombie node must be counted and
// dropped, and a drained node must end up hosting nothing.

// memberNode is what the harness keeps per process beyond the cluster's
// own node (h.c.Nodes[i]): its metrics registry and farm parameters.
type memberNode struct {
	reg    *metrics.Registry
	params *taskfarm.Params
}

// memberSetup configures buildMemberCluster. Joiner nodes are excluded
// from the initial member table (and from initial placement) and enter
// via RequestJoin.
type memberSetup struct {
	n      int
	joiner map[int]bool
	relCfg func(node int) vmi.ReliableConfig
	faults func(node int) []vmi.SendDevice
	farm   func(node int) *taskfarm.Params
}

type memberHarness struct {
	t       *testing.T
	c       *core.Cluster
	nodes   []*memberNode
	elastic *taskfarm.ElasticConfig
}

// safeLog forwards protocol logs to t.Logf but goes quiet once the test
// body finishes — membership and stack goroutines outlive the assertion
// phase, and logging to a finished test panics.
type safeLog struct {
	mu   sync.Mutex
	t    *testing.T
	done bool
}

func (l *safeLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.t.Logf(format, args...)
	}
}

func (l *safeLog) quiet() {
	l.mu.Lock()
	l.done = true
	l.mu.Unlock()
}

// buildMemberCluster starts an n-node cluster (one PE per node) with a
// Membership manager per process.
func buildMemberCluster(t *testing.T, s memberSetup) *memberHarness {
	t.Helper()
	topo, err := topology.Single(s.n)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.ClusterSpec{Topo: topo, Nodes: s.n, Joiners: s.joiner}
	h := &memberHarness{t: t, nodes: make([]*memberNode, s.n)}
	h.elastic = &taskfarm.ElasticConfig{
		NodeOf:     spec.NodeOf,
		ActiveNode: func(node int) bool { return node >= 0 && node < s.n && !s.joiner[node] },
		CoordNode:  0,
	}
	notifs := make([]*taskfarm.Notifier, s.n)
	for i := range h.nodes {
		nd := &memberNode{reg: metrics.NewRegistry(), params: s.farm(i)}
		nd.params.Elastic = h.elastic
		nd.params.Metrics = nd.reg
		notifs[i] = taskfarm.NewNotifier(nd.params)
		h.nodes[i] = nd
	}
	lg := &safeLog{t: t}
	spec.Builder = func(i int, b *vmi.ChainBuilder) {
		b.Metrics(h.nodes[i].reg).Reliable(s.relCfg(i))
		if s.faults != nil {
			b.Faults(s.faults(i)...)
		}
	}
	spec.Membership = func(i int, mc *core.MembershipConfig) {
		mc.Interval = 50 * time.Millisecond
		mc.OnChange = notifs[i].OnChange
		mc.Logf = func(format string, args ...any) {
			lg.logf("node %d: "+format, append([]any{i}, args...)...)
		}
	}
	spec.Program = func(i int) (*core.Program, error) {
		return taskfarm.BuildProgram(h.nodes[i].params)
	}
	spec.Options = func(i int) []core.Option { return []core.Option{core.WithMetrics(h.nodes[i].reg)} }
	if h.c, err = core.StartCluster(spec); err != nil {
		t.Fatal(err)
	}
	for i, nd := range h.nodes {
		nd.params.OnDrained = h.c.Nodes[i].Membership.NotifyDrained
		notifs[i].Bind(h.c.Nodes[i].Runtime, i)
	}
	t.Cleanup(h.shutdown)
	t.Cleanup(lg.quiet) // runs before shutdown: silence logs first
	return h
}

func (h *memberHarness) shutdown() { h.c.Close() }

// memberRun is an in-flight cluster run: events are injected between
// start and await.
type memberRun struct {
	h     *memberHarness
	coord chan runOutcome
}

type runOutcome struct {
	v   any
	err error
}

func (h *memberHarness) start() *memberRun {
	r := &memberRun{h: h, coord: make(chan runOutcome, 1)}
	go func() {
		v, err := h.c.Run()
		r.coord <- runOutcome{v, err}
	}()
	return r
}

// await blocks for the coordinator's result; the cluster's Run has
// stopped every worker runtime by then (the stacks stay up so post-run
// assertions can observe late zombie traffic).
func (r *memberRun) await(timeout time.Duration) (any, error) {
	t := r.h.t
	t.Helper()
	select {
	case out := <-r.coord:
		// A fenced zombie legitimately dies with a transport error;
		// worker exit status is not part of the run's verdict.
		var werr *core.NodeError
		if errors.As(out.err, &werr) {
			out.err = nil
		}
		return out.v, out.err
	case <-time.After(timeout):
		t.Fatal("coordinator did not finish within timeout")
		return nil, nil
	}
}

// awaitCounter polls one registry counter until it reaches min.
func awaitCounter(t *testing.T, reg *metrics.Registry, name string, min int64, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		if v := reg.Snapshot().Value(name); v >= min {
			return
		}
		if time.Now().After(limit) {
			t.Fatalf("%s never reached %d within %v", name, min, deadline)
		}
		time.Sleep(time.Millisecond)
	}
}

// gauntletFarm sizes the elastic farm so the run comfortably outlasts a
// {join, drain, kill} schedule fired shortly after the first grants.
func gauntletFarm(seed int64) func(node int) *taskfarm.Params {
	return func(node int) *taskfarm.Params {
		return &taskfarm.Params{
			Tasks:    4000,
			Workers:  6,
			Prefetch: 2,
			Batch:    5,
			Spin:     80000,
			Shards:   2,
			Seed:     uint64(seed),
		}
	}
}

func farmResult(t *testing.T, v any) *taskfarm.Result {
	t.Helper()
	res, ok := v.(*taskfarm.Result)
	if !ok {
		t.Fatalf("run result = %T, want *taskfarm.Result", v)
	}
	return res
}

// staticFarmChecksum runs the undisturbed 3-node elastic farm (no faults,
// no membership events) and returns its checksum — the reference every
// chaos schedule must reproduce bit-for-bit.
func staticFarmChecksum(t *testing.T, seed int64) uint64 {
	t.Helper()
	h := buildMemberCluster(t, memberSetup{
		n:      3,
		relCfg: func(int) vmi.ReliableConfig { return vmi.ReliableConfig{} },
		farm:   gauntletFarm(seed),
	})
	v, err := h.start().await(60 * time.Second)
	if err != nil {
		t.Fatalf("static run failed: %v", err)
	}
	res := farmResult(t, v)
	if want := taskfarm.ExpectedChecksum(res.Tasks); res.Checksum != want {
		t.Fatalf("static checksum %#x does not match offline expectation %#x", res.Checksum, want)
	}
	h.shutdown()
	return res.Checksum
}

// TestMembershipChaosElasticFarm is the acceptance gauntlet: a 3-node
// farm plus one joiner, 5%% seeded drops under the reliability layer on
// every path, and a seeded schedule firing all three membership events —
// node 3 joins, node 1 drains, node 2 is declared dead while its process
// keeps running (a fenced zombie). The run must complete with a checksum
// bit-identical to the undisturbed static cluster, the zombie's stale
// frames must be counted and dropped, and the drained/dead nodes must
// end up hosting zero workers. Three consecutive seeds run as subtests.
func TestMembershipChaosElasticFarm(t *testing.T) {
	seed := coreChaosSeed(t)
	static := staticFarmChecksum(t, seed)

	for i := int64(0); i < 3; i++ {
		s := seed + i
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			runMembershipGauntlet(t, s, static)
		})
	}
}

func runMembershipGauntlet(t *testing.T, seed int64, static uint64) {
	var fds []*vmi.FaultDevice
	h := buildMemberCluster(t, memberSetup{
		n:      4,
		joiner: map[int]bool{3: true},
		relCfg: func(int) vmi.ReliableConfig { return vmi.ReliableConfig{RTO: 5 * time.Millisecond} },
		faults: func(node int) []vmi.SendDevice {
			fd := vmi.NewFaultDevice(seed*4+int64(node), vmi.FaultPlan{Drop: 0.05})
			fds = append(fds, fd)
			return []vmi.SendDevice{fd}
		},
		farm: gauntletFarm(seed),
	})
	for _, fd := range fds {
		defer fd.Close()
	}

	run := h.start()
	// Events fire once the farm is demonstrably mid-run, in a
	// seed-derived order with seed-derived spacing. Join and drain block
	// on protocol completion, so they run concurrently with the rest of
	// the schedule; the kill is an instant coordinator-side declaration.
	awaitCounter(t, h.nodes[0].reg, "taskfarm_tasks_granted_total", 100, 30*time.Second)
	rng := rand.New(rand.NewSource(seed))
	order := []string{"join", "drain", "kill"}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	t.Logf("membership schedule (seed %d): %v", seed, order)
	joinErr := make(chan error, 1)
	drainErr := make(chan error, 1)
	for _, ev := range order {
		time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
		switch ev {
		case "join":
			go func() { joinErr <- h.c.Nodes[3].Membership.RequestJoin(30 * time.Second) }()
		case "drain":
			go func() { drainErr <- h.c.Nodes[1].Membership.RequestDrain(60 * time.Second) }()
		case "kill":
			if !h.c.Nodes[0].Membership.MarkDead(2, errors.New("chaos: injected kill")) {
				t.Error("MarkDead(2) was a no-op")
			}
		}
	}

	v, err := run.await(120 * time.Second)
	if err != nil {
		t.Fatalf("chaos run failed (seed %d): %v", seed, err)
	}
	res := farmResult(t, v)
	if want := taskfarm.ExpectedChecksum(res.Tasks); res.Checksum != want {
		t.Errorf("checksum %#x, want offline expectation %#x (seed %d)", res.Checksum, want, seed)
	}
	if res.Checksum != static {
		t.Errorf("checksum %#x diverged from static-cluster run %#x (seed %d)", res.Checksum, static, seed)
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Errorf("join failed (seed %d): %v", seed, err)
		}
	case <-time.After(40 * time.Second):
		t.Error("join never resolved")
	}
	select {
	case err := <-drainErr:
		if err != nil {
			t.Errorf("drain failed (seed %d): %v", seed, err)
		}
	case <-time.After(70 * time.Second):
		t.Error("drain never resolved")
	}

	mem0 := h.c.Nodes[0].Membership
	for node, want := range map[int]core.MemberState{1: core.MemberLeft, 2: core.MemberDead, 3: core.MemberActive} {
		if st, ok := mem0.StateOf(node); !ok || st != want {
			t.Errorf("node %d state = %v (known %v), want %v", node, st, ok, want)
		}
	}
	if mem0.Evacuated() == 0 {
		t.Error("no elements were evacuated despite a drain and a death")
	}
	// The zombie keeps retransmitting unacked pre-death frames; every
	// arrival carries the old epoch and must be counted and dropped.
	// Whether it holds any when it is declared dead is timing, so one
	// stale frame is made causal: sent under the zombie's pre-death epoch
	// and never acked, it is retransmitted until the fence counts it. A
	// failed Send means the zombie's layer already gave up on unacked
	// frames, whose retransmits the loop below sees.
	_ = h.c.Nodes[2].Stack.Send(&vmi.Frame{Src: 2, Dst: 0, Body: []byte("zombie")})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h.c.Nodes[0].Stack.Reliable().Stats().StaleEpochDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("zombie traffic produced no stale-epoch drops (seed %d): %+v",
				seed, h.c.Nodes[0].Stack.Reliable().Stats())
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The zombie is still retransmitting, so the count can grow between
	// two reads: the series must fall between the stats read before and
	// the one after it.
	lo := h.c.Nodes[0].Stack.Reliable().Stats().StaleEpochDropped
	series := h.nodes[0].reg.Snapshot().Value("vmi_rel_stale_epoch_dropped_total")
	if hi := h.c.Nodes[0].Stack.Reliable().Stats().StaleEpochDropped; series < lo || series > hi {
		t.Errorf("registry stale-drop series %d disagrees with stats [%d, %d]", series, lo, hi)
	}

	// Placement invariants: nothing lives on the drained or dead node,
	// every worker lives somewhere, exactly once.
	loc := h.c.Nodes[0].Runtime.Locations()
	for _, pe := range []int{1, 2} {
		if n := loc.LocalCount(taskfarm.ArrayWorker, pe); n != 0 {
			t.Errorf("PE %d still hosts %d workers after leaving the cluster", pe, n)
		}
	}
	total := 0
	for pe := 0; pe < 4; pe++ {
		total += loc.LocalCount(taskfarm.ArrayWorker, pe)
	}
	if total != res.Workers {
		t.Errorf("worker elements: %d placed, want %d exactly-once", total, res.Workers)
	}
	var dropped int64
	for _, fd := range fds {
		dropped += fd.Stats().Dropped
	}
	if dropped == 0 {
		t.Error("fault schedule dropped nothing; the run proved nothing about chaos")
	}
	t.Logf("seed %d: drops=%d evacuated=%d staleDrops=%d joins=%d",
		seed, dropped, mem0.Evacuated(), h.c.Nodes[0].Stack.Reliable().Stats().StaleEpochDropped, total)
}

// TestMembershipDeathDetectedByBudget kills a node for real — runtime
// stopped, stack closed, as close to kill -9 as one process gets — and
// requires the coordinator's Reliable layer to detect it by retransmit
// budget exhaustion, declare it dead, re-home its workers, and still
// finish with the exact checksum.
func TestMembershipDeathDetectedByBudget(t *testing.T) {
	seed := coreChaosSeed(t)
	var fds []*vmi.FaultDevice
	h := buildMemberCluster(t, memberSetup{
		n: 3,
		relCfg: func(int) vmi.ReliableConfig {
			return vmi.ReliableConfig{RTO: 3 * time.Millisecond, RTOMax: 15 * time.Millisecond}
		},
		faults: func(node int) []vmi.SendDevice {
			fd := vmi.NewFaultDevice(seed*8+int64(node), vmi.FaultPlan{Drop: 0.05})
			fds = append(fds, fd)
			return []vmi.SendDevice{fd}
		},
		farm: gauntletFarm(seed),
	})
	for _, fd := range fds {
		defer fd.Close()
	}

	run := h.start()
	awaitCounter(t, h.nodes[0].reg, "taskfarm_tasks_granted_total", 100, 30*time.Second)
	h.c.Nodes[2].Runtime.Stop()
	h.c.Nodes[2].Stack.Close()

	v, err := run.await(120 * time.Second)
	if err != nil {
		t.Fatalf("run failed after hard kill (seed %d): %v", seed, err)
	}
	res := farmResult(t, v)
	if want := taskfarm.ExpectedChecksum(res.Tasks); res.Checksum != want {
		t.Errorf("checksum %#x, want %#x: tasks lost or duplicated across the kill", res.Checksum, want)
	}
	if st, ok := h.c.Nodes[0].Membership.StateOf(2); !ok || st != core.MemberDead {
		t.Errorf("killed node state = %v (known %v), want dead", st, ok)
	}
	if h.c.Nodes[0].Membership.Evacuated() == 0 {
		t.Error("death re-homed no elements")
	}
	if pf := h.c.Nodes[0].Stack.Reliable().Stats().PeerFailures; pf == 0 {
		t.Error("the retransmit budget never declared the peer failed; death was not detected, only asserted")
	}
	if n := h.c.Nodes[0].Runtime.Locations().LocalCount(taskfarm.ArrayWorker, 2); n != 0 {
		t.Errorf("dead PE still hosts %d workers", n)
	}
}

// TestMembershipDrainGatesRedial is the dial-gate regression: once a
// peer has drained out of the cluster, nothing may redial it — a send
// that would need a fresh connection fails fast with ErrDialGated
// instead of entering the dial-retry loop — and the whole run must not
// leak a single goroutine (hand-rolled leak check, no external deps).
func TestMembershipDrainGatesRedial(t *testing.T) {
	before := goruntime.NumGoroutine()

	h := buildMemberCluster(t, memberSetup{
		n:      2,
		relCfg: func(int) vmi.ReliableConfig { return vmi.ReliableConfig{} },
		farm: func(int) *taskfarm.Params {
			return &taskfarm.Params{
				Tasks: 2000, Workers: 4, Prefetch: 2, Batch: 5,
				Spin: 60000, Shards: 1, Seed: 7,
			}
		},
	})
	run := h.start()
	awaitCounter(t, h.nodes[0].reg, "taskfarm_tasks_granted_total", 50, 30*time.Second)
	if err := h.c.Nodes[1].Membership.RequestDrain(60 * time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// Sever any connection that survived the drain, so the next send to
	// the departed peer must dial — and the gate must veto that dial.
	for h.c.Nodes[0].Stack.TCP().DropConn(1) {
	}
	err := h.c.Nodes[0].Stack.TCP().Send(&vmi.Frame{Src: 0, Dst: 1, Body: []byte("ghost")})
	if !errors.Is(err, vmi.ErrDialGated) {
		t.Errorf("send to drained peer: err = %v, want ErrDialGated", err)
	}
	// The veto must happen before the retry loop, not during it: no
	// goroutine may be sitting in dialRetry toward the departed peer.
	buf := make([]byte, 1<<20)
	if dump := string(buf[:goruntime.Stack(buf, true)]); strings.Contains(dump, "dialRetry") {
		t.Error("a dial-retry loop is running against a drained peer")
	}

	v, runErr := run.await(60 * time.Second)
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	res := farmResult(t, v)
	if want := taskfarm.ExpectedChecksum(res.Tasks); res.Checksum != want {
		t.Errorf("checksum %#x, want %#x", res.Checksum, want)
	}

	// Tear everything down, then require the goroutine count to return
	// to its pre-test baseline: a leaked reconnect loop never exits, so
	// it would hold the count up forever.
	h.shutdown()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := goruntime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			n := goruntime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after teardown\n%s",
				before, goruntime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nopChare is the placement-property test's inert element.
type nopChare struct{}

func (nopChare) Recv(*core.Ctx, core.EntryID, any) {}

// TestPlanDrainProperty: for 50 seeded random location tables, PlanDrain
// must evacuate the drained PEs completely, move nothing it does not
// have to, target only live PEs, and leave every element reachable
// exactly once.
func TestPlanDrainProperty(t *testing.T) {
	seed := coreChaosSeed(t)
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		numPE := 2 + rng.Intn(8)
		nArrays := 1 + rng.Intn(3)
		specs := make([]core.ArraySpec, nArrays)
		arrays := make([]core.ArrayID, nArrays)
		totalElems := 0
		for a := range specs {
			n := 1 + rng.Intn(40)
			totalElems += n
			specs[a] = core.ArraySpec{ID: core.ArrayID(a), N: n,
				New: func(int) core.Chare { return nopChare{} }}
			arrays[a] = core.ArrayID(a)
		}
		prog := &core.Program{Arrays: specs, Start: func(*core.Ctx) {}}
		loc := core.NewLocations(prog, numPE)
		// Scatter elements over random PEs — 50 seeded LB outcomes.
		for a := range specs {
			for i := 0; i < specs[a].N; i++ {
				ref := core.ElemRef{Array: core.ArrayID(a), Index: i}
				to := rng.Intn(numPE)
				if int(loc.PEOf(ref)) != to {
					if _, err := loc.Move(ref, to); err != nil {
						t.Fatalf("trial %d: scatter move: %v", trial, err)
					}
				}
			}
		}
		// Drain a random proper subset of PEs (at least one survivor).
		evac := make(map[int]bool)
		for len(evac) == 0 {
			for pe := 0; pe < numPE; pe++ {
				if rng.Intn(3) == 0 && len(evac) < numPE-1 {
					evac[pe] = true
				}
			}
		}
		evacFn := func(pe int) bool { return evac[pe] }
		alive := func(pe int) bool { return !evac[pe] }

		moves := core.PlanDrain(loc, arrays, numPE, evacFn, alive)
		seen := make(map[core.ElemRef]bool)
		for _, mv := range moves {
			if seen[mv.Ref] {
				t.Fatalf("trial %d (seed %d): element %v moved twice", trial, seed+int64(trial), mv.Ref)
			}
			seen[mv.Ref] = true
			if from := int(loc.PEOf(mv.Ref)); !evac[from] {
				t.Fatalf("trial %d: plan moves %v off non-drained PE %d", trial, mv.Ref, from)
			}
			if !alive(mv.ToPE) {
				t.Fatalf("trial %d: plan targets drained/dead PE %d", trial, mv.ToPE)
			}
			if _, err := loc.Move(mv.Ref, mv.ToPE); err != nil {
				t.Fatalf("trial %d: applying plan: %v", trial, err)
			}
		}
		// Post-state: drained PEs empty, every element exactly once.
		count := 0
		for pe := 0; pe < numPE; pe++ {
			for a := range specs {
				refs := loc.ElementsOn(core.ArrayID(a), pe)
				if evac[pe] && len(refs) > 0 {
					t.Fatalf("trial %d: PE %d still hosts %d elements of array %d after drain",
						trial, pe, len(refs), a)
				}
				count += len(refs)
				for _, ref := range refs {
					if int(loc.PEOf(ref)) != pe {
						t.Fatalf("trial %d: %v listed on PE %d but PEOf says %d",
							trial, ref, pe, loc.PEOf(ref))
					}
				}
			}
		}
		if count != totalElems {
			t.Fatalf("trial %d: %d elements reachable after drain, want %d exactly-once",
				trial, count, totalElems)
		}
	}
}
