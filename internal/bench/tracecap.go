package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/trace"
)

// traceRun is traceSimRun for a real-time experiment: the tracer rides in
// the profile's runtime options. In the two-node TCP runners both runtimes
// share the tracer, so one snapshot covers every PE of the run.
func (p Profile) traceRun(name string, procs int) ([]core.Option, func()) {
	opts := p.rtOpts()
	tr, flush := p.traceSimRun(name, procs)
	if tr != nil {
		opts = append(opts, core.WithTrace(tr))
	}
	return opts, flush
}

// traceSimRun prepares per-run trace capture for a virtual-time experiment.
// It returns a tracer to pass via sim.Options.Trace (nil when the profile
// has no TraceDir — a nil tracer records nothing) and a flush function
// that drops a snapshot (readable by cmd/gridtrace) and a plain-text
// overlap report next to the results. Virtual time models PEs as
// genuinely parallel, so these are the snapshots in which the overlap
// profile is exact rather than subject to host scheduling.
func (p Profile) traceSimRun(name string, procs int) (*trace.Tracer, func()) {
	if p.TraceDir == "" {
		return nil, func() {}
	}
	tr := trace.New(procs)
	return tr, func() {
		if err := WriteTraceArtifacts(p.TraceDir, name, tr, procs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: trace %s: %v\n", name, err)
		}
	}
}

// WriteTraceArtifacts writes <dir>/<name>.trace.json (a trace.Snapshot) and
// <dir>/<name>.overlap.txt (the overlap profile) for one finished run.
func WriteTraceArtifacts(dir, name string, tr *trace.Tracer, procs int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	evs := tr.Events()
	var horizon time.Duration
	for _, ev := range evs {
		if end := ev.At + time.Duration(ev.Arg1); ev.Kind == trace.EvIdle && end > horizon {
			horizon = end
		} else if ev.At > horizon {
			horizon = ev.At
		}
	}
	snap := tr.Snapshot(0, 0, procs, horizon)
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := snap.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	of, err := os.Create(filepath.Join(dir, name+".overlap.txt"))
	if err != nil {
		return err
	}
	defer of.Close()
	trace.ComputeOverlap(evs, procs, horizon).Report(of)
	return nil
}
