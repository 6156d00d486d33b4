// Command gridtrace is the trace analyzer: it merges the per-node trace
// snapshots written by gridnode, gridsim, and the bench harness back into
// one causal event stream (message IDs are node-unique, so cross-node
// send→enqueue edges reconnect) and reports, Projections-style:
//
//   - a per-PE terminal timeline (busy fraction per time bucket),
//   - the overlap profile — compute vs. comm-wait vs. masked latency,
//     run-wide and per application step,
//   - the critical path of the run (flight / queue / compute per hop),
//
// and optionally exports the stream as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing:
//
//	gridtrace traces/*.trace.json
//	gridtrace -chrome run.json traces/node0.trace.json traces/node1.trace.json
//
// With -job it instead converts one job's cross-process span tree — the
// JSON served by the collector at /v1/jobs/{id}/trace — to the same
// Chrome format:
//
//	curl -s http://gate:8080/v1/jobs/J1/trace > j1.json
//	gridtrace -job j1.json -chrome j1.chrome.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/trace"
)

func main() {
	var (
		buckets  = flag.Int("buckets", 100, "timeline buckets (0 disables the timeline)")
		steps    = flag.Bool("steps", true, "per-step overlap table (needs step marks in the trace)")
		critical = flag.Bool("critpath", true, "critical-path analysis")
		chrome   = flag.String("chrome", "", "write Chrome trace-event JSON (Perfetto/chrome://tracing) to this file")
		job      = flag.String("job", "", "convert a /v1/jobs/{id}/trace JSON document (\"-\" reads stdin) to Chrome trace JSON (-chrome, or stdout) and exit")
	)
	flag.Parse()
	if *job != "" {
		if err := exportJobFile(*job, *chrome); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gridtrace [flags] snapshot.trace.json ...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// A multi-file merge skips unreadable or corrupt snapshots (a killed
	// node leaves a truncated file behind) and analyzes the survivors;
	// only an empty survivor set is fatal.
	snaps := make([]*trace.Snapshot, 0, flag.NArg())
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			warn(err)
			continue
		}
		s, err := trace.ReadSnapshot(f)
		f.Close()
		if err != nil {
			warn(fmt.Errorf("%s: skipped: %w", path, err))
			continue
		}
		snaps = append(snaps, s)
	}
	if len(snaps) == 0 {
		fatal(fmt.Errorf("no readable snapshots among %d file(s)", flag.NArg()))
	}

	if err := analyze(os.Stdout, snaps, analyzeOpts{
		Buckets:  *buckets,
		Steps:    *steps,
		CritPath: *critical,
	}); err != nil {
		fatal(err)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		evs, _, _ := trace.Merge(snaps...)
		err = trace.WriteChrome(f, evs, nodeOfFunc(snaps))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *chrome)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gridtrace: %v\n", err)
	os.Exit(1)
}

func warn(err error) {
	fmt.Fprintf(os.Stderr, "gridtrace: warning: %v\n", err)
}

type analyzeOpts struct {
	Buckets  int
	Steps    bool
	CritPath bool
}

// analyze merges the snapshots and writes every requested report to w.
func analyze(w io.Writer, snaps []*trace.Snapshot, opts analyzeOpts) error {
	if len(snaps) == 0 {
		return fmt.Errorf("no snapshots")
	}
	evs, numPE, horizon := trace.Merge(snaps...)
	var dropped uint64
	for _, s := range snaps {
		dropped += s.Dropped
	}
	fmt.Fprintf(w, "%d events from %d snapshot(s), %d PEs, horizon %v",
		len(evs), len(snaps), numPE, horizon.Round(time.Microsecond))
	if dropped > 0 {
		fmt.Fprintf(w, " (%d events lost to ring wrap)", dropped)
	}
	fmt.Fprintln(w)

	if opts.Buckets > 0 {
		fmt.Fprintln(w)
		trace.RenderTimelineEvents(w, evs, numPE, horizon, opts.Buckets)
	}

	fmt.Fprintln(w)
	trace.ComputeOverlap(evs, numPE, horizon).Report(w)

	if opts.Steps {
		if so := trace.StepOverlaps(evs, numPE, horizon); len(so) > 1 || (len(so) == 1 && so[0].Step >= 0) {
			fmt.Fprintln(w)
			fmt.Fprintf(w, "per-step overlap:\n  %-6s %12s %12s %8s\n", "step", "masked", "exposed", "masked%")
			for _, s := range so {
				tot := s.Totals()
				fmt.Fprintf(w, "  %-6d %12v %12v %7.1f%%\n",
					s.Step, tot.Masked, tot.Exposed, 100*s.MaskedFraction())
			}
		}
	}

	if opts.CritPath {
		fmt.Fprintln(w)
		trace.CriticalPath(evs).Report(w, msgKindName)
	}
	return nil
}

// nodeOfFunc maps global PE → node using the snapshots' PE ranges.
func nodeOfFunc(snaps []*trace.Snapshot) func(pe int) int {
	return func(pe int) int {
		for _, s := range snaps {
			if pe >= s.PELo && pe < s.PEHi {
				return s.Node
			}
		}
		return 0
	}
}

func msgKindName(k byte) string {
	switch core.Kind(k) {
	case core.KindApp:
		return "app"
	case core.KindStart:
		return "start"
	case core.KindReduce:
		return "reduce"
	case core.KindLB:
		return "lb"
	}
	return fmt.Sprintf("kind%d", k)
}
