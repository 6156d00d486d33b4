// Command stencil runs the five-point stencil application standalone on
// either executor.
//
//	stencil -procs 8 -objects 64 -latency 4ms                 # virtual time
//	stencil -executor realtime -procs 4 -objects 16 -steps 20 # wall clock
//	stencil -executor tcp -procs 4 -objects 64                # two TCP nodes
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gridmdo/internal/bench"
	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/trace"
)

func main() {
	var (
		executor = flag.String("executor", "sim", "sim|realtime|tcp")
		procs    = flag.Int("procs", 8, "processors, split evenly over two clusters (1 = single cluster)")
		objects  = flag.Int("objects", 64, "virtualization degree (perfect square)")
		width    = flag.Int("width", 2048, "mesh width")
		height   = flag.Int("height", 2048, "mesh height")
		steps    = flag.Int("steps", 12, "time steps")
		warmup   = flag.Int("warmup", 4, "warmup steps excluded from per-step timing")
		latency  = flag.Duration("latency", 4*time.Millisecond, "one-way inter-cluster latency; the real runtimes (-executor realtime|tcp) honour sub-millisecond values to ~0.1 ms on Linux")
		prio     = flag.Bool("prioritize-wan", false, "deliver cross-cluster messages first (sim only)")
		bundle   = flag.Bool("bundle", false, "bundle per-handler same-destination messages (sim only)")
		timeline = flag.Bool("timeline", false, "print a per-PE utilization timeline (sim only)")
		traceOut = flag.String("trace-out", "", "write a trace snapshot (for gridtrace) to this file")
	)
	flag.Parse()

	cfg := bench.StencilConfig{
		Width: *width, Height: *height,
		Steps: *steps, Warmup: *warmup,
		Model: stencil.DefaultModel(),
	}
	var (
		res *stencil.Result
		err error
		tr  *trace.Tracer
	)
	if *timeline || *traceOut != "" {
		tr = trace.New(*procs)
	}
	var rtOpts []core.Option
	if tr != nil {
		rtOpts = append(rtOpts, core.WithTrace(tr))
	}
	start := time.Now()
	switch *executor {
	case "sim":
		res, err = bench.StencilSim(cfg, *procs, *objects, *latency, sim.Options{PrioritizeWAN: *prio, Bundle: *bundle, Trace: tr})
	case "realtime":
		res, err = bench.StencilRealtime(cfg, *procs, *objects, *latency, rtOpts...)
	case "tcp":
		res, err = bench.StencilTCP(cfg, *procs, *objects, *latency, rtOpts...)
	default:
		err = fmt.Errorf("unknown executor %q", *executor)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stencil: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("stencil %dx%d  procs=%d objects=%d latency=%v executor=%s\n",
		*width, *height, *procs, *objects, *latency, *executor)
	fmt.Printf("  per-step: %v   total: %v (%d steps, %d warmup)\n",
		res.PerStep, res.Total, res.Steps, res.Warmup)
	fmt.Printf("  checksum: %.6f\n", res.Checksum)
	if *timeline && tr != nil {
		fmt.Println()
		tr.RenderTimeline(os.Stdout, res.FinishAt, 100)
	}
	if *traceOut != "" {
		horizon := res.FinishAt
		if *executor != "sim" {
			horizon = time.Since(start)
		}
		if err := writeTrace(*traceOut, tr, *procs, horizon); err != nil {
			fmt.Fprintf(os.Stderr, "stencil: trace: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTrace snapshots the whole run (every PE; the TCP executor's two
// runtimes share the tracer) for cmd/gridtrace.
func writeTrace(path string, tr *trace.Tracer, procs int, horizon time.Duration) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Snapshot(0, 0, procs, horizon).Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
