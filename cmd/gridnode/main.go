// Command gridnode hosts one node (one OS process, a contiguous range of
// PEs) of a multi-process GridMDO run over TCP — the paper's co-allocated
// deployment, with each gridnode process standing in for one cluster's
// allocation. Node 0 is the coordinator: it starts the program, reports
// the result, and announces shutdown to the workers.
//
// Processes may start in any order (a node's first connection to each
// peer retries with exponential backoff for ~9 seconds). For example:
//
//	gridnode -node 1 -addrs 127.0.0.1:9101,127.0.0.1:9102 -app stencil -procs 4 &
//	gridnode -node 0 -addrs 127.0.0.1:9101,127.0.0.1:9102 -app stencil -procs 4
//
// Every process must be given identical application flags; the node count
// is the number of comma-separated addresses, and PEs are split evenly
// across nodes (procs must be divisible by the node count). With two
// nodes, the node boundary coincides with the cluster boundary, so all
// node-to-node TCP traffic is the "wide area" path and carries the
// configured injected latency. One address (-addrs 127.0.0.1:0) runs
// every PE in this process; the two clusters still meet across the
// injected latency.
//
// Migration rides the PUP serialization layer: -lb enables AtSync load
// balancing, and migrations between nodes travel as ordinary runtime
// messages over the same TCP chain.
//
// The job gateway: with -app taskfarm -serve the farm is an open-ended
// service, and node 0 is its HTTP front door (internal/gate). Clients
// POST jobs to -listen; the gateway admits them against the -tenants
// quotas, schedules them with weighted fair queueing, and injects them
// into the live farm as message-driven tasks — the farm masks the
// wide-area latency, the gate masks the farm. SIGTERM or SIGINT on the
// gateway stops the runtime: residual jobs fail with 503, node 0 prints
// "N jobs completed, M double-executions", announces shutdown to the
// other nodes and exits 0.
//
// Observability: -metrics serves the runtime's registry over HTTP
// (Prometheus text at /metrics, JSON with ?format=json), and
// -metrics-out writes a JSON snapshot of the same registry when the run
// completes. Both cover the core scheduler series (per-PE) and the VMI
// device series (per-device). The same HTTP server answers /healthz and
// /readyz (readiness drops during membership drain) and, with -pprof,
// net/http/pprof under /debug/pprof/.
//
// The telemetry plane rides the same control path as membership: with
// -telemetry each node runs an agent shipping metric deltas and trace
// digests to node 0 as ControlTelemetry frames. Node 0's collector
// merges them into the live cluster view — /v1/cluster/{metrics,
// overlap,health,slo} and /v1/jobs/{id}/trace — served on its -metrics
// address and, on a gateway, beside the job API.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/telemetry"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// config carries the parsed command line into run. The flag groups live
// in internal/appflags.
type config struct {
	appflags.Cluster
	appflags.App
	appflags.Obs

	listen, tenants string // the gateway: node 0 of a -serve farm

	// signals, when non-nil, replaces the SIGINT/SIGTERM subscription
	// (tests deliver signals through it).
	signals chan os.Signal
	// onMetrics, when non-nil, receives the bound metrics address once the
	// endpoint is listening (tests scrape it during a live run).
	onMetrics func(addr string)
	// onListen, when non-nil, receives the gateway's bound job API address
	// once it accepts jobs.
	onListen func(addr string)
	// onCollector, when non-nil, receives this node's telemetry collector
	// (tests read the cluster view without scraping HTTP).
	onCollector func(c *telemetry.Collector)
	// onService, when non-nil, receives the gateway's farm service (tests
	// audit its completion counts).
	onService func(s *taskfarm.Service)
	// onRuntime, when non-nil, receives the runtime right after
	// construction (tests inspect Locations before and after the run).
	onRuntime func(rt *core.Runtime)
	// onResult, when non-nil, receives node 0's program result.
	onResult func(v any)
}

func main() {
	var cfg config
	fs := flag.CommandLine
	cfg.Cluster.Register(fs)
	cfg.Sim.Register(fs)
	cfg.Stencil.Register(fs)
	cfg.LeanMD.Register(fs)
	cfg.Farm.Register(fs)
	cfg.Obs.Register(fs)
	fs.StringVar(&cfg.Name, "app", "stencil", "stencil|leanmd|taskfarm")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:8080", "gateway (node 0 with -serve): HTTP listen address for job submission")
	fs.StringVar(&cfg.tenants, "tenants", "default", "gateway (node 0 with -serve): admitted tenants as name[:weight[:maxqueue]],...")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gridnode: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	spec, err := cfg.Cluster.Resolve()
	if err != nil {
		return err
	}
	if err := cfg.Obs.Validate(); err != nil {
		return err
	}
	nodes := spec.Nodes

	if cfg.Serve {
		if cfg.Name != "taskfarm" {
			return fmt.Errorf("-serve supports -app taskfarm only")
		}
		if cfg.Membership {
			return fmt.Errorf("-serve does not support -membership: a serve farm's node set is fixed for its lifetime")
		}
	}

	// Elastic membership: -joiners names the nodes that start outside the
	// member set; everyone else is a founding Active member.
	joiner, err := cfg.Cluster.JoinerSet(nodes)
	if err != nil {
		return err
	}
	var elastic *taskfarm.ElasticConfig
	if cfg.Membership {
		elastic = &taskfarm.ElasticConfig{
			NodeOf:     spec.NodeOf,
			ActiveNode: func(node int) bool { return node >= 0 && node < nodes && !joiner[node] },
			CoordNode:  0,
		}
	} else if len(joiner) > 0 {
		return fmt.Errorf("-joiners requires -membership")
	}

	// Readiness starts false and flips true once the runtime is about to
	// serve; membership and drain state feed it below.
	health := telemetry.NewHealth()
	health.Set("startup", "runtime not started")

	// Every agent reports to node 0, so node 0's collector is the cluster
	// view (a worker's hears nothing). It is built before the cluster
	// starts so a telemetry frame from a fast peer never races its
	// construction, and before a gateway, which feeds it job latencies.
	coll := telemetry.NewCollector(telemetry.CollectorConfig{
		SLO: telemetry.NewSLOTracker(),
	})
	if cfg.onCollector != nil {
		cfg.onCollector(coll)
	}

	// The registry is created before the program so applications that
	// publish their own series (taskfarm) can hold handles into it; the
	// same registry later instruments the runtime and the VMI stack.
	reg := metrics.NewRegistry()
	app, err := cfg.App.Build(appflags.Env{Procs: cfg.Procs, Node: cfg.Node, Metrics: reg, Elastic: elastic})
	if err != nil {
		return err
	}
	prog, tfp, svc := app.Program, app.Farm, app.Service

	// Node 0 of a serve farm is its gateway. The job API's socket is bound
	// now, so a bad -listen fails the run before any peer is dialed.
	var gw *gateway
	if svc != nil {
		if gw, err = newGateway(cfg, svc, reg, health, coll); err != nil {
			return err
		}
		defer gw.close()
		if cfg.onService != nil {
			cfg.onService(svc)
		}
	}

	art := &artifacts{metricsPath: cfg.MetricsOut, reg: reg, tracePath: cfg.TraceOut, node: cfg.Node}
	art.peLo, art.peHi = spec.PEs(cfg.Node)
	rtOpts := []core.Option{core.WithMetrics(reg)}
	if gw != nil {
		rtOpts = append(rtOpts, core.WithLifecycle(gw.lifecycle(health, cfg.onListen)))
	}
	if cfg.TraceOut != "" || cfg.Telemetry {
		art.tr = trace.NewWithCapacity(cfg.Procs, cfg.TraceRingCap())
		rtOpts = append(rtOpts, core.WithTrace(art.tr))
	}
	spec.Program = func(int) (*core.Program, error) { return prog, nil }
	spec.Builder = func(_ int, b *vmi.ChainBuilder) { b.Metrics(reg) }
	spec.Options = func(int) []core.Option { return rtOpts }
	spec.OnControl = func(f *vmi.Frame) {
		if f.Dst == vmi.ControlTelemetry {
			_ = coll.Ingest(f.Body) // bad frames are counted, never fatal
		}
	}
	var notifier *taskfarm.Notifier
	if cfg.Membership {
		// App.Build accepts -membership only for the farm, so tfp is set.
		notifier = taskfarm.NewNotifier(tfp)
		spec.Joiners = joiner
		spec.Membership = func(_ int, mc *core.MembershipConfig) {
			mc.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "gridnode %d: "+format+"\n", append([]any{cfg.Node}, args...)...)
			}
			mc.OnChange = notifier.OnChange
		}
	}
	cl, err := core.StartCluster(*spec)
	if err != nil {
		return err
	}
	defer cl.Close()
	nd := cl.Nodes[cfg.Node]
	stack, rt, mem := nd.Stack, nd.Runtime, nd.Membership
	if mem != nil {
		// Readiness tracks the member table: a node that is joining,
		// draining, or dead should fall out of load-balancer rotation.
		health.AddCheck("membership", func() error {
			st, ok := mem.StateOf(cfg.Node)
			if !ok {
				return fmt.Errorf("node %d not in the member table", cfg.Node)
			}
			if st != core.MemberActive {
				return fmt.Errorf("node %d is %v, want Active", cfg.Node, st)
			}
			return nil
		})
		// Late-bound: the root's drain-complete hook marks the node Left
		// at the coordinator.
		tfp.OnDrained = mem.NotifyDrained
	}
	if cfg.onRuntime != nil {
		cfg.onRuntime(rt)
	}
	if notifier != nil {
		notifier.Bind(rt, cfg.Node)
	}
	if svc != nil {
		svc.Bind(rt)
	}
	// Trace timestamps are relative to the runtime epoch; record it so
	// gridtrace can re-base snapshots from separately started processes.
	art.start = rt.Epoch()

	// The telemetry agent ships reports to node 0 over the control path.
	// On node 0 itself SendControl self-delivers synchronously, so the
	// same wiring serves both roles.
	if cfg.Telemetry {
		agent, err := telemetry.NewAgent(telemetry.AgentConfig{
			Node:     cfg.Node,
			Registry: reg,
			Tracer:   art.tr,
			Epoch:    rt.Epoch(),
			NumPE:    cfg.Procs,
			Interval: cfg.TelemetryInterval,
			Send: func(b []byte) error {
				return stack.SendControl(0, &vmi.Frame{Src: int32(cfg.Node), Dst: vmi.ControlTelemetry, Body: b})
			},
		})
		if err != nil {
			return err
		}
		agent.Start()
		defer agent.Stop()
	}

	sigCh := cfg.signals
	if sigCh == nil {
		sigCh = make(chan os.Signal, 1)
		signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigCh)
	}
	// SIGTERM on a membership-enabled worker node drains instead of
	// killing: the farm stops granting to the node's workers, the
	// coordinator marks it Left once their tasks are done, and the process
	// exits cleanly.
	var drainFn func() bool
	if mem != nil && cfg.Node != 0 {
		drainFn = func() bool {
			// Readiness drops the moment the drain starts, before any chare
			// has moved, so a probing balancer stops routing here first.
			health.Set("draining", "SIGTERM drain in progress")
			if err := mem.RequestDrain(60 * time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "gridnode %d: drain: %v\n", cfg.Node, err)
				return false
			}
			return true
		}
	}
	if gw != nil {
		// A gateway's shutdown is the run's normal epilogue: stopping the
		// runtime fails residual jobs, prints the completion line, tells
		// the backends, and flushes the artifacts.
		stopOnSignal(sigCh, rt, health)
	} else {
		watchSignals(sigCh, art, os.Exit, drainFn)
	}

	if cfg.MetricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		mux := serveMux(cfg, reg.Handler(), health, coll)
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Fprintf(os.Stderr, "gridnode %d: metrics on http://%s/metrics\n", cfg.Node, ln.Addr())
		if cfg.onMetrics != nil {
			cfg.onMetrics(ln.Addr().String())
		}
	}

	fmt.Fprintf(os.Stderr, "gridnode %d/%d: hosting PEs [%d,%d) of %s on %s\n",
		cfg.Node, nodes, art.peLo, art.peHi, spec.Topo, stack.Addr())

	if mem != nil && joiner[cfg.Node] {
		fmt.Fprintf(os.Stderr, "gridnode %d: requesting admission to the member set\n", cfg.Node)
		if err := mem.RequestJoin(60 * time.Second); err != nil {
			return fmt.Errorf("join: %w", err)
		}
		fmt.Fprintf(os.Stderr, "gridnode %d: admitted\n", cfg.Node)
	}

	// The scheduler loop is about to serve; readiness now rests on the
	// membership check alone (joiners flip Active through it).
	health.Set("startup", "")

	v, err := cl.Run()
	if err != nil {
		return err
	}

	if cfg.Node == 0 {
		if cfg.onResult != nil {
			cfg.onResult(v)
		}
		if gw != nil {
			gw.close()
			fmt.Printf("gateway: %d jobs completed, %d double-executions\n", svc.Completed(), svc.DoubleExecs())
		} else {
			appflags.Report(os.Stdout, v)
		}
		// Stop anti-entropy first: a re-broadcast during the flush below
		// would redial workers that already exited. Close is idempotent;
		// cl.Close calls it again.
		if mem != nil {
			mem.Close()
		}
		// Announce shutdown to the workers. Nodes that left or died have
		// no process to notify (and dialing them would stall the exit).
		for n := 1; n < nodes; n++ {
			if mem != nil {
				// A node outside the table (a joiner that never joined)
				// still gets the announcement — it is listening and would
				// otherwise wait forever.
				if st, ok := mem.StateOf(n); ok && (st == core.MemberLeft || st == core.MemberDead) {
					continue
				}
			}
			if err := stack.SendControl(n, &vmi.Frame{Src: int32(cfg.Node), Dst: vmi.ControlShutdown}); err != nil {
				fmt.Fprintf(os.Stderr, "gridnode: shutdown announce to node %d: %v\n", n, err)
			}
		}
		// Give the frames time to flush before closing connections.
		time.Sleep(100 * time.Millisecond)
	}

	return art.flush()
}

// serveMux builds the HTTP surface one listener of a node serves: m at
// /metrics, the /healthz and /readyz probes, the collector's cluster view
// and job traces, and -pprof. -metrics serves it as is; a gateway serves
// it on -listen with the job API under it.
func serveMux(cfg config, m http.Handler, health *telemetry.Health, coll *telemetry.Collector) *http.ServeMux {
	staleAfter := 3 * cfg.TelemetryInterval
	if staleAfter <= 0 {
		staleAfter = 3 * telemetry.DefaultInterval
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", m)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	// Go 1.22 routing keeps /v1/jobs/{id}/trace out of a gateway's job
	// API, which serves every other /v1/jobs route.
	mux.Handle("GET /v1/jobs/{id}/trace", coll.JobTraceHandler())
	coll.Mount(mux, staleAfter)
	if cfg.Pprof {
		telemetry.MountPprof(mux)
	}
	return mux
}

// artifacts is everything gridnode flushes at the end of a run — the
// metrics snapshot and the trace snapshot. flush is idempotent so the
// normal completion path and the signal handler can race safely.
type artifacts struct {
	once sync.Once
	err  error

	metricsPath string
	reg         *metrics.Registry

	tracePath        string
	tr               *trace.Tracer
	node, peLo, peHi int
	start            time.Time
}

// flush writes every configured artifact exactly once and remembers the
// first error for later calls.
func (a *artifacts) flush() error {
	a.once.Do(func() {
		if a.metricsPath != "" && a.reg != nil {
			if err := writeFile(a.metricsPath, a.reg.WriteJSON); err != nil && a.err == nil {
				a.err = fmt.Errorf("metrics snapshot: %w", err)
			}
		}
		if a.tracePath != "" && a.tr != nil {
			snap := a.tr.Snapshot(a.node, a.peLo, a.peHi, time.Since(a.start))
			snap.EpochUnixNs = a.start.UnixNano()
			if err := writeFile(a.tracePath, snap.Write); err != nil && a.err == nil {
				a.err = fmt.Errorf("trace snapshot: %w", err)
			}
		}
	})
	return a.err
}

// watchSignals flushes the artifacts and exits with the conventional
// 128+signal status when a signal arrives, so an interrupted run (SIGINT,
// SIGTERM from a batch scheduler) still leaves its observability data
// behind. With drain non-nil (elastic membership), SIGTERM first tries a
// clean drain — evict this node's chares onto the survivors and leave the
// member set — and exits 0 when it succeeds. The channel is injected for
// tests; exit is os.Exit in main.
func watchSignals(ch <-chan os.Signal, a *artifacts, exit func(int), drain func() bool) {
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		if sig == syscall.SIGTERM && drain != nil {
			fmt.Fprintf(os.Stderr, "gridnode: caught %v, draining\n", sig)
			if drain() {
				if err := a.flush(); err != nil {
					fmt.Fprintf(os.Stderr, "gridnode: %v\n", err)
				}
				exit(0)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "gridnode: caught %v, flushing artifacts\n", sig)
		if err := a.flush(); err != nil {
			fmt.Fprintf(os.Stderr, "gridnode: %v\n", err)
		}
		code := 128
		if s, isSys := sig.(syscall.Signal); isSys {
			code += int(s)
		}
		exit(code)
	}()
}

// writeFile creates path, and its directory, and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
