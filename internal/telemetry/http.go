package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"gridmdo/internal/metrics"
)

// HTTP exposition for the cluster view. The collector's endpoints mount
// under /v1/cluster/ (plus the per-job trace endpoint); the embedding
// command wires them into its mux alongside its own routes:
//
//	GET /v1/cluster/metrics  — aggregated snapshot, prom or json
//	GET /v1/cluster/overlap  — per-step masked/exposed across all nodes
//	GET /v1/cluster/health   — per-node report liveness and gap counts
//	GET /v1/cluster/slo      — per-tenant burn-rate evaluation
//	GET /v1/jobs/{id}/trace  — one job's cross-process span tree

// writeJSON mirrors the gate package's helper: indented JSON with an
// explicit status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// MetricsHandler serves the aggregated cluster snapshot in the standard
// negotiated formats (Prometheus text or JSON).
func (c *Collector) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		metrics.ServeSnapshot(w, req, c.ClusterMetrics())
	})
}

// OverlapHandler serves the live per-step overlap rows.
func (c *Collector) OverlapHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"steps": c.ClusterOverlap()})
	})
}

// HealthHandler serves the per-node report-liveness view. stale_after_ms
// bounds how old a node's last report may be before the view flags it.
func (c *Collector) HealthHandler(staleAfter time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		nodes := c.Nodes()
		stale := 0
		for _, n := range nodes {
			if n.AgeMs > staleAfter.Milliseconds() {
				stale++
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"nodes":          nodes,
			"stale":          stale,
			"stale_after_ms": staleAfter.Milliseconds(),
			"bad_wire":       c.BadWire(),
		})
	})
}

// SLOHandler evaluates every tenant's burn rates as of now.
func (c *Collector) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		t := c.SLO()
		if t == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "slo tracking disabled"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"objective_ms":   sloObjective.Milliseconds(),
			"budget":         sloBudget,
			"fast_window_ms": int64(sloFastSecs * 1000),
			"slow_window_ms": int64(sloSlowSecs * 1000),
			"burn_threshold": sloBurnThreshold,
			"tenants":        t.Evaluate(time.Now()),
		})
	})
}

// JobTraceHandler serves GET /v1/jobs/{id}/trace. It extracts the job ID
// from the penultimate path segment, so it can be mounted on the literal
// pattern "/v1/jobs/" alongside the gateway's own job routes (the
// gateway's handler owns the non-/trace paths).
func (c *Collector) JobTraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
		// .../v1/jobs/{id}/trace
		if len(parts) < 2 || parts[len(parts)-1] != "trace" {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "not found"})
			return
		}
		id := parts[len(parts)-2]
		doc, ok := c.JobTrace(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job (not admitted here, or trace aged out)"})
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
}

// MountPprof attaches net/http/pprof's handlers onto mux. The default
// registration rides http.DefaultServeMux, which the commands here never
// serve — they each build their own mux — so the profile routes have to
// be mounted explicitly, and only when the operator asked (-pprof).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Mount attaches the cluster endpoints onto mux. staleAfter parameterizes
// the health view; pass roughly 3x the agents' reporting interval.
func (c *Collector) Mount(mux *http.ServeMux, staleAfter time.Duration) {
	mux.Handle("GET /v1/cluster/metrics", c.MetricsHandler())
	mux.Handle("GET /v1/cluster/overlap", c.OverlapHandler())
	mux.Handle("GET /v1/cluster/health", c.HealthHandler(staleAfter))
	mux.Handle("GET /v1/cluster/slo", c.SLOHandler())
}
