package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/telemetry"
)

// gateway is node 0 of a serve farm: the HTTP job API (internal/gate) in
// front of the farm's ingest service. Node 0 hosts the root chare, where
// completions surface, and the first dispatcher shard, so a job's
// injection and its result never cross a process boundary twice.
type gateway struct {
	gw  *gate.Gateway
	ln  net.Listener
	srv *http.Server
}

// newGateway admits the -tenants against svc and binds -listen. It
// serves once the runtime starts (see lifecycle); close tears it down.
func newGateway(cfg config, svc *taskfarm.Service, reg *metrics.Registry, health *telemetry.Health, coll *telemetry.Collector) (*gateway, error) {
	tenants, err := parseTenants(cfg.tenants)
	if err != nil {
		return nil, err
	}
	gw, err := gate.New(gate.Config{Tenants: tenants, Metrics: reg, Observer: coll}, svc)
	if err != nil {
		return nil, err
	}
	svc.OnResult(gw.OnResult)
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return nil, fmt.Errorf("gate listener: %w", err)
	}
	// The gate's own /metrics narrows by ?tenant=; everything else off
	// the job API is the node's diagnostics surface.
	api := gw.Handler()
	mux := serveMux(cfg, api, health, coll)
	mux.Handle("/", api)
	return &gateway{gw: gw, ln: ln, srv: &http.Server{Handler: mux}}, nil
}

// lifecycle opens the ingress only once the runtime's schedulers are
// live, and closes it (failing residual jobs with 503) the moment the
// runtime exits — exactly the window in which the farm can absorb work.
func (g *gateway) lifecycle(health *telemetry.Health, onListen func(addr string)) core.Lifecycle {
	return core.Lifecycle{
		OnStart: func() {
			go func() { _ = g.srv.Serve(g.ln) }()
			fmt.Fprintf(os.Stderr, "gridnode 0: accepting jobs on http://%s/v1/jobs\n", g.ln.Addr())
			if onListen != nil {
				onListen(g.ln.Addr().String())
			}
		},
		OnExit: func(_ any, err error) {
			health.Set("shutdown", "runtime exited; failing residual jobs")
			g.gw.Close(err)
		},
	}
}

// close shuts the job API and its open connections; idempotent.
func (g *gateway) close() {
	_ = g.srv.Close()
	_ = g.ln.Close()
}

// stopOnSignal stops the runtime on the first SIGINT or SIGTERM.
func stopOnSignal(ch <-chan os.Signal, rt *core.Runtime, health *telemetry.Health) {
	go func() {
		if sig, ok := <-ch; ok {
			fmt.Fprintf(os.Stderr, "gridnode 0: caught %v, stopping\n", sig)
			health.Set("draining", "shutdown signal received")
			rt.Stop()
		}
	}()
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
