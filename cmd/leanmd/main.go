// Command leanmd runs the LeanMD molecular dynamics application
// standalone on either executor.
//
//	leanmd -procs 32 -latency 32ms               # virtual time, paper scale
//	leanmd -executor realtime -procs 4 -steps 20 # wall clock
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gridmdo/internal/bench"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/trace"
)

func main() {
	var (
		executor = flag.String("executor", "sim", "sim|realtime|tcp")
		procs    = flag.Int("procs", 8, "processors, split evenly over two clusters (1 = single cluster)")
		cells    = flag.Int("cells", 6, "cells per axis (paper: 6 => 216 cells, 3024 pairs)")
		atoms    = flag.Int("atoms", 12, "atoms actually simulated per cell")
		steps    = flag.Int("steps", 8, "time steps")
		warmup   = flag.Int("warmup", 3, "warmup steps excluded from per-step timing")
		latency  = flag.Duration("latency", 4*time.Millisecond, "one-way inter-cluster latency; the real runtimes (-executor realtime|tcp) honour sub-millisecond values to ~0.1 ms on Linux")
		timeline = flag.Bool("timeline", false, "print a per-PE utilization timeline (sim only)")
		bundle   = flag.Bool("bundle", false, "bundle per-handler same-destination messages (sim only)")
	)
	flag.Parse()

	cfg := bench.MDConfig{
		NX: *cells, NY: *cells, NZ: *cells,
		AtomsPerCell: *atoms,
		Steps:        *steps, Warmup: *warmup,
		Model: leanmd.DefaultModel(),
	}
	var (
		res *leanmd.Result
		err error
		tr  *trace.Tracer
	)
	if *timeline {
		tr = trace.New(*procs)
	}
	switch *executor {
	case "sim":
		res, err = bench.LeanMDSim(cfg, *procs, *latency, sim.Options{Bundle: *bundle, Trace: tr})
	case "realtime":
		res, err = bench.LeanMDRealtime(cfg, *procs, *latency)
	case "tcp":
		res, err = bench.LeanMDTCP(cfg, *procs, *latency)
	default:
		err = fmt.Errorf("unknown executor %q", *executor)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "leanmd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("leanmd %d cells / %d pairs  procs=%d latency=%v executor=%s\n",
		res.Cells, res.Pairs, *procs, *latency, *executor)
	fmt.Printf("  per-step: %v   total: %v (%d steps, %d warmup)\n",
		res.PerStep, res.Total, res.Steps, res.Warmup)
	fmt.Printf("  energy: %.6f -> %.6f (drift %.4f%%)\n", res.EWarm, res.EFinal, 100*res.Drift())
	if tr != nil {
		fmt.Println()
		tr.RenderTimeline(os.Stdout, res.FinishAt, 100)
	}
}
