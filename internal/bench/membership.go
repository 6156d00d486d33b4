package bench

import (
	"fmt"
	"io"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/vmi"
)

// MembershipConfig sizes the membership-recovery experiment: an elastic
// taskfarm over real TCP loopback where one node is killed (and, in a
// second series, drained) mid-run. The interesting numbers are wall-clock
// — how long the retransmit budget takes to notice a dead peer, how long
// until its elements are re-homed, and what the disturbance costs against
// an undisturbed baseline — so this experiment has no virtual-time column.
type MembershipConfig struct {
	// Nodes is the cluster size, one process and one PE per node. The
	// coordinator is node 0; the kill victim is the last node and the
	// drain victim node 1, so the two series never disturb the
	// dispatcher.
	Nodes int
	// Tasks, Workers, Prefetch, Batch, Shards, Spin shape the farm
	// exactly as taskfarm.Params does; Spin makes the tasks real CPU
	// work so the run is long enough to disturb.
	Tasks, Workers, Prefetch, Batch, Shards, Spin int
	// EventAfterGrants delays the membership event until the coordinator
	// has granted this many tasks, so the event lands mid-run rather
	// than during startup.
	EventAfterGrants int64
	// RTO and RTOMax tune the reliability layer; the kill-detection
	// latency is a direct function of the retransmit budget built on
	// them.
	RTO, RTOMax time.Duration
	// Drop is a seeded per-frame drop rate injected under the
	// reliability layer on every node. Nonzero drops keep retransmit
	// state alive on every flow, so a kill is always detected by budget
	// exhaustion — with a perfectly clean network, a victim with no
	// unacked frames in flight at kill time would never be probed again.
	// It also makes the measurement honest for a grid setting: the paper
	// targets wide-area links, not a loopback in a lab.
	Drop float64
	// Seeds are the per-repetition farm seeds; each seed runs the
	// baseline, the kill, and the drain once.
	Seeds []int64
}

// MembershipPoint is one measured disturbed run.
type MembershipPoint struct {
	Seed       int64
	Event      string  // "kill" or "drain"
	DetectMS   float64 // kill -> coordinator declares dead
	RehomeMS   float64 // kill -> elements re-homed
	DrainMS    float64 // request -> node Left
	MakespanMS float64
	BaselineMS float64
	// OverheadPct is the makespan cost of the disturbance relative to
	// the same-seed undisturbed run (negative values are noise).
	OverheadPct float64
	Evacuated   int64
	ChecksumOK  bool
}

// MembershipReport is the result of the membership experiment: recovery
// latency after a mid-run kill and drain cost, each cross-checked
// against the static checksum.
type MembershipReport struct {
	Kill           []MembershipPoint
	Drain          []MembershipPoint
	ChecksumsMatch bool
}

// memberProc is one process of the elastic in-process cluster.
type memberProc struct {
	stack  *vmi.Stack
	reg    *metrics.Registry
	mem    *core.Membership
	rt     *core.Runtime
	params *taskfarm.Params
	fd     *vmi.FaultDevice
}

// memberCluster mirrors the wiring cmd/gridnode does per process: stack
// and membership manager exist before Listen, runtimes before the
// address book opens, so no control frame races a half-built process.
type memberCluster struct {
	procs []*memberProc
}

func buildMemberBench(cfg MembershipConfig, seed int64) (*memberCluster, error) {
	n := cfg.Nodes
	nodeOf := func(pe int) int { return pe }
	routeFn := func(pe int32) int { return int(pe) }
	elastic := &taskfarm.ElasticConfig{
		NodeOf:     nodeOf,
		ActiveNode: func(node int) bool { return node >= 0 && node < n },
		CoordNode:  0,
	}
	var initial []core.Member
	for i := 0; i < n; i++ {
		initial = append(initial, core.Member{Node: int32(i), State: core.MemberActive})
	}
	c := &memberCluster{procs: make([]*memberProc, n)}
	fail := func(err error) (*memberCluster, error) {
		c.shutdown()
		return nil, err
	}
	for i := 0; i < n; i++ {
		p := &memberProc{reg: metrics.NewRegistry()}
		c.procs[i] = p
		addrs := make(map[int]string, n)
		for j := 0; j < n; j++ {
			addrs[j] = ""
		}
		addrs[i] = "127.0.0.1:0"
		b := vmi.NewChainBuilder(i, addrs, routeFn).
			Metrics(p.reg).
			OnControl(func(f *vmi.Frame) {
				if f.Dst == vmi.ControlMembership && p.mem != nil {
					p.mem.HandleControl(f)
				}
			})
		if cfg.Drop > 0 {
			p.fd = vmi.NewFaultDevice(seed*int64(n)+int64(i), vmi.FaultPlan{Drop: cfg.Drop})
			b = b.Faults([]vmi.SendDevice{p.fd}, nil)
		}
		st, err := b.
			Reliable(vmi.ReliableConfig{RTO: cfg.RTO, RTOMax: cfg.RTOMax}).
			Build()
		if err != nil {
			return fail(err)
		}
		p.stack = st
		// Dead listeners refuse instantly; don't sit in dial backoff for
		// a peer the retransmit budget is about to declare dead.
		st.TCP().DialAttempts = 2
		p.params = &taskfarm.Params{
			Tasks: cfg.Tasks, Workers: cfg.Workers, Prefetch: cfg.Prefetch,
			Batch: cfg.Batch, Shards: cfg.Shards, Spin: cfg.Spin,
			Seed: uint64(seed), Elastic: elastic, Metrics: p.reg,
		}
		notif := taskfarm.NewNotifier(p.params)
		mem, err := core.NewMembership(core.MembershipConfig{
			Node:        i,
			Coordinator: 0,
			Stack:       st,
			NodeOf:      nodeOf,
			NumPE:       n,
			Initial:     initial,
			Interval:    50 * time.Millisecond,
			OnChange:    notif.OnChange,
			Logf:        func(string, ...any) {},
		})
		if err != nil {
			return fail(err)
		}
		p.mem = mem
		p.params.OnDrained = mem.NotifyDrained
		prog, err := taskfarm.BuildProgram(p.params)
		if err != nil {
			return fail(err)
		}
		topo, err := topology.Single(n)
		if err != nil {
			return fail(err)
		}
		rt, err := core.NewRuntime(topo, prog,
			core.WithCluster(core.ClusterConfig{
				Transport: st, NodeOf: nodeOf, Node: i, PELo: i, PEHi: i + 1,
			}),
			core.WithMetrics(p.reg),
			core.WithMembership(mem))
		if err != nil {
			return fail(err)
		}
		p.rt = rt
		notif.Bind(rt, i)
		mem.Instrument(p.reg)
	}
	addrs := make([]string, n)
	for i, p := range c.procs {
		a, err := p.stack.Listen()
		if err != nil {
			return fail(err)
		}
		addrs[i] = a
	}
	// Only now does traffic start to flow.
	for i, p := range c.procs {
		for j, a := range addrs {
			if j != i {
				p.stack.SetAddr(j, a)
			}
		}
	}
	return c, nil
}

func (c *memberCluster) shutdown() {
	for _, p := range c.procs {
		if p != nil && p.mem != nil {
			p.mem.Close()
		}
	}
	for _, p := range c.procs {
		if p != nil && p.rt != nil {
			p.rt.Stop()
		}
	}
	for _, p := range c.procs {
		if p != nil && p.stack != nil {
			p.stack.Close()
		}
	}
	for _, p := range c.procs {
		if p != nil && p.fd != nil {
			p.fd.Close()
		}
	}
}

// run starts every runtime and blocks for the coordinator's result;
// event, when non-nil, fires once the coordinator has granted
// cfg.EventAfterGrants tasks. Worker exit status is not part of the
// verdict — a killed node legitimately dies with a transport error.
func (c *memberCluster) run(cfg MembershipConfig, event func() error) (*taskfarm.Result, time.Duration, error) {
	for i := 1; i < len(c.procs); i++ {
		go func(p *memberProc) { _, _ = p.rt.Run() }(c.procs[i])
	}
	type outcome struct {
		v   any
		err error
	}
	coord := make(chan outcome, 1)
	start := time.Now()
	go func() {
		v, err := c.procs[0].rt.Run()
		coord <- outcome{v, err}
	}()
	if event != nil {
		if err := awaitCounter(c.procs[0].reg, "taskfarm_tasks_granted_total", cfg.EventAfterGrants, 60*time.Second); err != nil {
			c.shutdown()
			return nil, 0, err
		}
		if err := event(); err != nil {
			c.shutdown()
			return nil, 0, err
		}
	}
	var out outcome
	select {
	case out = <-coord:
	case <-time.After(180 * time.Second):
		c.shutdown()
		return nil, 0, fmt.Errorf("coordinator did not finish within 180s")
	}
	elapsed := time.Since(start)
	if out.err != nil {
		c.shutdown()
		return nil, 0, out.err
	}
	res, ok := out.v.(*taskfarm.Result)
	if !ok {
		c.shutdown()
		return nil, 0, fmt.Errorf("run result = %T, want *taskfarm.Result", out.v)
	}
	return res, elapsed, nil
}

// awaitCounter polls one registry counter until it reaches min.
func awaitCounter(reg *metrics.Registry, name string, min int64, deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for {
		if v := reg.Snapshot().Value(name); v >= min {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("%s never reached %d within %v", name, min, deadline)
		}
		time.Sleep(time.Millisecond)
	}
}

// MembershipRecovery measures elastic-membership recovery on a live
// cluster (DESIGN.md §10): for each seed it runs the same farm three
// times — undisturbed, with the last node hard-killed mid-run (runtime
// stopped, stack closed; the coordinator must detect the death through
// retransmit-budget exhaustion), and with node 1 drained mid-run through
// the full drain protocol. Every disturbed run must reproduce the
// undisturbed checksum bit-for-bit; a divergence comes back as an error
// alongside the table and the report.
func MembershipRecovery(w io.Writer, p Profile) (*Table, *MembershipReport, error) {
	cfg := p.Membership
	want := taskfarm.ExpectedChecksum(cfg.Tasks)
	t := &Table{
		Title: fmt.Sprintf("Membership recovery: %d nodes, %d tasks, kill and drain fired after %d grants",
			cfg.Nodes, cfg.Tasks, cfg.EventAfterGrants),
		Header: []string{"Seed", "Event", "Detect (ms)", "Re-home (ms)", "Drain (ms)",
			"Makespan (ms)", "Baseline (ms)", "Overhead", "Evacuated", "Checksum"},
	}
	rep := &MembershipReport{ChecksumsMatch: true}

	addRow := func(pt MembershipPoint, detect, rehome, drain string) {
		ck := "ok"
		if !pt.ChecksumOK {
			ck = "MISMATCH"
			rep.ChecksumsMatch = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.Seed), pt.Event, detect, rehome, drain,
			fmt.Sprintf("%.0f", pt.MakespanMS), fmt.Sprintf("%.0f", pt.BaselineMS),
			fmt.Sprintf("%+.1f%%", pt.OverheadPct),
			fmt.Sprintf("%d", pt.Evacuated), ck,
		})
	}

	for _, seed := range cfg.Seeds {
		c, err := buildMemberBench(cfg, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("membership baseline seed %d: %w", seed, err)
		}
		res, base, err := c.run(cfg, nil)
		c.shutdown()
		if err != nil {
			return nil, nil, fmt.Errorf("membership baseline seed %d: %w", seed, err)
		}
		if res.Checksum != want {
			return nil, nil, fmt.Errorf("baseline checksum %#x, want %#x", res.Checksum, want)
		}
		progress(w, "membership baseline seed=%d %8.0f ms\n", seed, ms(base))

		// Hard kill: runtime stopped, stack closed — as close to kill -9
		// as one process gets. Detection and re-home latency come off
		// the coordinator's own metrics, the same counters operators see.
		c, err = buildMemberBench(cfg, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("membership kill seed %d: %w", seed, err)
		}
		victim := cfg.Nodes - 1
		var killAt time.Time
		var detect, rehome time.Duration
		res, elapsed, err := c.run(cfg, func() error {
			killAt = time.Now()
			c.procs[victim].rt.Stop()
			c.procs[victim].stack.Close()
			// One reliable probe pins the detection clock to the kill.
			// Death detection rides the retransmit budget of whatever
			// application flow happens to target the victim; a quiet
			// victim (all its grants acked an instant before the kill)
			// would only be declared dead when the farm next talks to
			// it. The probe is that next frame, sent at a known time, so
			// detect_ms measures the full budget schedule rather than
			// the accident of where the grant pipeline paused.
			if err := c.procs[0].stack.Send(&vmi.Frame{
				Src: 0, Dst: int32(victim), Class: vmi.ClassSystem, Body: []byte("probe"),
			}); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			if err := awaitCounter(c.procs[0].reg, "membership_deaths_total", 1, 60*time.Second); err != nil {
				return err
			}
			detect = time.Since(killAt)
			if err := awaitCounter(c.procs[0].reg, "membership_evacuated_elements_total", 1, 60*time.Second); err != nil {
				return err
			}
			rehome = time.Since(killAt)
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("membership kill seed %d: %w", seed, err)
		}
		pt := MembershipPoint{
			Seed: seed, Event: "kill",
			DetectMS: ms(detect), RehomeMS: ms(rehome),
			MakespanMS: ms(elapsed), BaselineMS: ms(base),
			OverheadPct: 100 * (elapsed.Seconds() - base.Seconds()) / base.Seconds(),
			Evacuated:   c.procs[0].reg.Snapshot().Value("membership_evacuated_elements_total"),
			ChecksumOK:  res.Checksum == want,
		}
		c.shutdown()
		rep.Kill = append(rep.Kill, pt)
		addRow(pt, fmt.Sprintf("%.1f", pt.DetectMS), fmt.Sprintf("%.1f", pt.RehomeMS), "-")
		progress(w, "membership kill     seed=%d %8.0f ms  detect=%.1f ms  rehome=%.1f ms  evac=%d\n",
			seed, pt.MakespanMS, pt.DetectMS, pt.RehomeMS, pt.Evacuated)

		// Cooperative drain: RequestDrain blocks through the full
		// protocol — Draining broadcast, evacuation, drain-clear, the
		// farewell table that makes the node Left.
		c, err = buildMemberBench(cfg, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("membership drain seed %d: %w", seed, err)
		}
		var drain time.Duration
		res, elapsed, err = c.run(cfg, func() error {
			t0 := time.Now()
			if err := c.procs[1].mem.RequestDrain(60 * time.Second); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			drain = time.Since(t0)
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("membership drain seed %d: %w", seed, err)
		}
		pt = MembershipPoint{
			Seed: seed, Event: "drain",
			DrainMS:    ms(drain),
			MakespanMS: ms(elapsed), BaselineMS: ms(base),
			OverheadPct: 100 * (elapsed.Seconds() - base.Seconds()) / base.Seconds(),
			Evacuated:   c.procs[0].reg.Snapshot().Value("membership_evacuated_elements_total"),
			ChecksumOK:  res.Checksum == want,
		}
		c.shutdown()
		rep.Drain = append(rep.Drain, pt)
		addRow(pt, "-", "-", fmt.Sprintf("%.1f", pt.DrainMS))
		progress(w, "membership drain    seed=%d %8.0f ms  drain=%.1f ms  evac=%d\n",
			seed, pt.MakespanMS, pt.DrainMS, pt.Evacuated)
	}
	if !rep.ChecksumsMatch {
		return t, rep, fmt.Errorf("a disturbed run diverged from checksum %#x", want)
	}
	return t, rep, nil
}
