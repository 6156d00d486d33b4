// Command gridgate is the grid's job-submission front door: an HTTP/JSON
// gateway (internal/gate) wired onto a serve-mode taskfarm. External
// clients POST jobs; the gateway admits them against per-tenant quotas,
// schedules them with weighted fair queueing, injects them into the live
// farm as message-driven tasks, and streams results back — the farm
// masks the wide-area latency, the gate masks the farm.
//
// gridgate is node 0 of a multi-process cluster whose remaining nodes
// run `gridnode -serve` with identical cluster and farm flags:
//
//	gridnode -serve -app taskfarm -node 1 -addrs 127.0.0.1:9101,127.0.0.1:9102 -shards 2 -procs 4 &
//	gridgate -addrs 127.0.0.1:9101,127.0.0.1:9102 -shards 2 -procs 4 -listen 127.0.0.1:8080
//
// Run without -addrs it hosts the whole farm in one process — the
// single-machine deployment the soak benchmark drives.
//
// The HTTP surface (see internal/gate):
//
//	POST /v1/jobs                  {"tenant": "...", "key": "...", "wait": bool}
//	GET  /v1/jobs/{id}             status
//	GET  /v1/jobs/{id}/result      409 until complete
//	GET  /v1/jobs/{id}/events      ndjson status stream
//	GET  /metrics                  registry; ?tenant= narrows, ?format=json|prom
//
// gridgate also hosts the cluster telemetry collector: backends started
// with -telemetry ship metric deltas and trace digests here as
// ControlTelemetry frames, and the merged view is served beside the job
// API:
//
//	GET  /v1/cluster/metrics       aggregated cluster snapshot
//	GET  /v1/cluster/overlap       per-step masked/exposed across nodes
//	GET  /v1/cluster/health        per-node report liveness
//	GET  /v1/cluster/slo           per-tenant burn-rate evaluation
//	GET  /v1/jobs/{id}/trace       one job's cross-process span tree
//	GET  /healthz, /readyz         liveness and readiness probes
//
// SIGTERM/SIGINT stop the runtime, fail in-flight jobs with 503, and
// announce shutdown to the backends.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/telemetry"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// config carries the parsed command line into run. Cluster and Farm come
// from internal/appflags, shared with cmd/gridnode so the gateway and
// its backends build the identical serve-farm program.
type config struct {
	appflags.Cluster
	appflags.Farm
	appflags.Obs

	listen      string
	tenants     string
	maxInflight int
	submitBatch int
	idemTTL     time.Duration
	sloLatency  time.Duration
	sloBudget   float64

	// onListen, when non-nil, receives the bound HTTP address (tests).
	onListen func(addr string)
	// onRuntime, when non-nil, receives the runtime (tests stop it).
	onRuntime func(rt *core.Runtime)
	// onService, when non-nil, receives the farm service (tests audit it).
	onService func(s *taskfarm.Service)
	// onCollector, when non-nil, receives the telemetry collector (tests
	// read the cluster view without scraping HTTP).
	onCollector func(c *telemetry.Collector)
}

func main() {
	var cfg config
	fs := flag.CommandLine
	cfg.Cluster.Register(fs)
	cfg.Farm.Register(fs)
	cfg.Obs.Register(fs, 0)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:8080", "HTTP listen address for job submission")
	fs.StringVar(&cfg.tenants, "tenants", "default", "admitted tenants as name[:weight[:maxqueue]],...")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0, "max tasks in the farm at once (0 = gate default)")
	fs.IntVar(&cfg.submitBatch, "submit-batch", 0, "max jobs coalesced per farm submission (0 = gate default)")
	fs.DurationVar(&cfg.idemTTL, "idem-ttl", 0, "idempotency key lifetime (0 = gate default)")
	fs.DurationVar(&cfg.sloLatency, "slo-latency", 100*time.Millisecond, "per-tenant latency objective for SLO burn tracking")
	fs.Float64Var(&cfg.sloBudget, "slo-budget", 0.01, "SLO error budget (fraction of requests allowed over the objective)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gridgate: %v\n", err)
		os.Exit(1)
	}
}

// parseTenants decodes the -tenants spec: comma-separated entries of
// name, name:weight, or name:weight:maxqueue.
func parseTenants(spec string) ([]gate.TenantConfig, error) {
	if spec == "" {
		return nil, fmt.Errorf("need -tenants with at least one tenant")
	}
	var out []gate.TenantConfig
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		tc := gate.TenantConfig{Name: parts[0]}
		if tc.Name == "" {
			return nil, fmt.Errorf("empty tenant name in %q", spec)
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("bad tenant entry %q (want name[:weight[:maxqueue]])", entry)
		}
		if len(parts) > 1 {
			w, err := strconv.Atoi(parts[1])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad weight in tenant entry %q", entry)
			}
			tc.Weight = w
		}
		if len(parts) > 2 {
			q, err := strconv.Atoi(parts[2])
			if err != nil || q < 1 {
				return nil, fmt.Errorf("bad maxqueue in tenant entry %q", entry)
			}
			tc.MaxQueue = q
		}
		out = append(out, tc)
	}
	return out, nil
}

func run(cfg config) error {
	tenants, err := parseTenants(cfg.tenants)
	if err != nil {
		return err
	}

	// The gateway IS the serve farm's node 0: it hosts the root chare
	// (where completions surface) and the first dispatcher shard, so a
	// submission's injection and its result delivery never cross a
	// process boundary twice.
	cfg.Serve = true
	single := cfg.Addrs == ""
	var lay *appflags.Layout
	var topo *topology.Topology
	if single {
		split := cfg.Split
		if split == 0 {
			split = cfg.Procs / 2
		}
		if split <= 0 || split >= cfg.Procs {
			return fmt.Errorf("split=%d out of range for %d PEs", split, cfg.Procs)
		}
		topo, err = topology.New([]int{split, cfg.Procs - split}, topology.WithInterLatency(cfg.Latency))
		if err != nil {
			return err
		}
	} else {
		if cfg.Node != 0 {
			return fmt.Errorf("gridgate must be node 0 (got -node %d); backends run gridnode -serve", cfg.Node)
		}
		lay, err = cfg.Cluster.Resolve()
		if err != nil {
			return err
		}
		topo = lay.Topo
	}

	reg := metrics.NewRegistry()
	p := cfg.Farm.Params(cfg.Procs, reg, nil)
	svc, err := taskfarm.NewService(p)
	if err != nil {
		return err
	}
	prog, err := taskfarm.BuildProgram(p)
	if err != nil {
		return err
	}

	// The gateway always hosts the telemetry collector: it is the cluster's
	// coordinator, every backend's control path terminates here, and the
	// job API it serves is where per-job traces are queried. SLO burn
	// tracking rides the collector's JobDone observer hook.
	sloCfg := telemetry.DefaultSLOConfig()
	sloCfg.Objective = cfg.sloLatency
	sloCfg.Budget = cfg.sloBudget
	coll := telemetry.NewCollector(telemetry.CollectorConfig{
		SLO: telemetry.NewSLOTracker(sloCfg),
	})
	if cfg.onCollector != nil {
		cfg.onCollector(coll)
	}
	health := telemetry.NewHealth()
	health.Set("startup", "ingress not open")

	var rt *core.Runtime
	var stack *vmi.Stack
	rtOpts := []core.Option{core.WithMetrics(reg)}
	if !single {
		builder := vmi.NewChainBuilder(0, lay.AddrMap, func(pe int32) int { return lay.NodeOf(int(pe)) }).
			Metrics(reg).
			OnControl(func(f *vmi.Frame) {
				switch f.Dst {
				case vmi.ControlShutdown:
					if rt != nil {
						rt.Stop()
					}
				case vmi.ControlTelemetry:
					_ = coll.Ingest(f.Body) // bad frames are counted, never fatal
				}
			})
		stack, err = builder.Build()
		if err != nil {
			return err
		}
		if _, err := stack.Listen(); err != nil {
			return err
		}
		defer stack.Close()
		rtOpts = append(rtOpts, core.WithCluster(core.ClusterConfig{
			Transport: stack,
			NodeOf:    lay.NodeOf,
			Node:      0,
			PELo:      0,
			PEHi:      lay.PerNode,
		}))
	}

	// Tracing: job roots and injection sends recorded here stitch to the
	// backends' execution spans in the collector, so the tracer runs
	// whenever telemetry does.
	var tr *trace.Tracer
	if cfg.TraceOut != "" || cfg.Telemetry {
		tr = trace.NewWithCapacity(cfg.Procs, cfg.TraceRingCap())
		rtOpts = append(rtOpts, core.WithTrace(tr))
	}

	gw, err := gate.New(gate.Config{
		Tenants:     tenants,
		MaxInflight: cfg.maxInflight,
		SubmitBatch: cfg.submitBatch,
		IdemTTL:     cfg.idemTTL,
		Metrics:     reg,
		Observer:    coll,
	}, svc)
	if err != nil {
		return err
	}
	svc.OnResult(gw.OnResult)

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("gate listener: %w", err)
	}
	defer ln.Close()

	// The outer mux layers the cluster view over the gateway's job API.
	// Go 1.22 routing keeps /v1/jobs/{id}/trace out of the gateway's
	// catch-all while leaving every other job route untouched.
	staleAfter := 3 * cfg.TelemetryInterval
	if staleAfter <= 0 {
		staleAfter = 3 * telemetry.DefaultInterval
	}
	mux := http.NewServeMux()
	mux.Handle("/", gw.Handler())
	mux.Handle("GET /v1/jobs/{id}/trace", coll.JobTraceHandler())
	coll.Mount(mux, staleAfter)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	if cfg.Pprof {
		telemetry.MountPprof(mux)
	}
	srv := &http.Server{Handler: mux}

	// -metrics serves the diagnostics surface on a second address for
	// deployments that keep the job API private: the local registry plus
	// the same probes and cluster view.
	if cfg.MetricsAddr != "" {
		dln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer dln.Close()
		diag := http.NewServeMux()
		diag.Handle("/metrics", reg.Handler())
		diag.HandleFunc("/healthz", health.Healthz)
		diag.HandleFunc("/readyz", health.Readyz)
		diag.Handle("GET /v1/jobs/", coll.JobTraceHandler())
		coll.Mount(diag, staleAfter)
		if cfg.Pprof {
			telemetry.MountPprof(diag)
		}
		go func() { _ = http.Serve(dln, diag) }()
		fmt.Fprintf(os.Stderr, "gridgate: diagnostics on http://%s/metrics\n", dln.Addr())
	}

	// The ingress opens only once the runtime's schedulers are live, and
	// closes (failing residual jobs with 503) the moment the runtime
	// exits — the Lifecycle hooks bracket exactly the window in which the
	// farm can absorb work.
	rtOpts = append(rtOpts, core.WithLifecycle(core.Lifecycle{
		OnStart: func() {
			go func() { _ = srv.Serve(ln) }()
			health.Set("startup", "")
			fmt.Fprintf(os.Stderr, "gridgate: accepting jobs on http://%s/v1/jobs\n", ln.Addr())
			if cfg.onListen != nil {
				cfg.onListen(ln.Addr().String())
			}
		},
		OnExit: func(v any, err error) {
			health.Set("shutdown", "runtime exited; failing residual jobs")
			gw.Close(err)
		},
	}))

	rt, err = core.NewRuntime(topo, prog, rtOpts...)
	if err != nil {
		return err
	}
	svc.Bind(rt)
	if cfg.onRuntime != nil {
		cfg.onRuntime(rt)
	}
	if cfg.onService != nil {
		cfg.onService(svc)
	}

	// The gateway's own telemetry agent feeds the embedded collector
	// directly — no control frame for the zero-hop case.
	if cfg.Telemetry {
		agent, err := telemetry.NewAgent(telemetry.AgentConfig{
			Node:     0,
			Registry: reg,
			Tracer:   tr,
			Epoch:    rt.Epoch(),
			NumPE:    cfg.Procs,
			Interval: cfg.TelemetryInterval,
			SpanFilter: func(ev trace.Event) bool {
				return ev.MsgKind != byte(core.KindQD) && ev.MsgKind != byte(core.KindStop)
			},
			Send: func(b []byte) error { return coll.Ingest(b) },
		})
		if err != nil {
			return err
		}
		agent.Start()
		defer agent.Stop()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		if sig, ok := <-sigCh; ok {
			fmt.Fprintf(os.Stderr, "gridgate: caught %v, stopping\n", sig)
			health.Set("draining", "shutdown signal received")
			rt.Stop()
		}
	}()

	if !single {
		fmt.Fprintf(os.Stderr, "gridgate 0/%d: hosting PEs [0,%d) of %s on %s\n",
			lay.Nodes, lay.PerNode, topo, lay.AddrMap[0])
	}

	if _, err := rt.Run(); err != nil {
		return err
	}
	_ = srv.Close()

	fmt.Printf("gridgate: %d jobs completed, %d double-executions\n", svc.Completed(), svc.DoubleExecs())

	if !single {
		// Announce shutdown to the backends, then give the frames time to
		// flush before the deferred stack.Close tears the connections down.
		for n := 1; n < lay.Nodes; n++ {
			if err := stack.SendControl(n, &vmi.Frame{Src: 0, Dst: vmi.ControlShutdown}); err != nil {
				fmt.Fprintf(os.Stderr, "gridgate: shutdown announce to node %d: %v\n", n, err)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}

	if cfg.TraceOut != "" && tr != nil {
		peHi := cfg.Procs
		if !single {
			peHi = lay.PerNode
		}
		if err := writeTraceSnapshot(cfg.TraceOut, tr, peHi, rt.Epoch()); err != nil {
			return fmt.Errorf("trace snapshot: %w", err)
		}
	}

	if cfg.MetricsOut != "" {
		f, err := os.Create(cfg.MetricsOut)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// writeTraceSnapshot dumps node 0's trace for cmd/gridtrace, epoch-stamped
// so it merges with snapshots from separately started backends.
func writeTraceSnapshot(path string, tr *trace.Tracer, peHi int, epoch time.Time) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := tr.Snapshot(0, 0, peHi, time.Since(epoch))
	snap.EpochUnixNs = epoch.UnixNano()
	if err := snap.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
