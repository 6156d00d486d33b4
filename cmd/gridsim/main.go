// Command gridsim regenerates the paper's evaluation artifacts: Figure 3
// and Table 1 (five-point stencil), Figure 4 and Table 2 (LeanMD), and the
// DESIGN.md ablations. Results print as aligned text tables; -csv also
// writes machine-readable files. gridsim run is one application in
// virtual time; the same run in real time is gridnode -addrs 127.0.0.1:0.
//
// Usage:
//
//	gridsim -experiment all                # everything, paper-scale
//	gridsim -experiment figure3 -fast      # scaled-down quick look
//	gridsim -experiment table1 -skip-realtime
//	gridsim run -app stencil -procs 16 -objects 256 -latency 8ms -width 2048 -steps 12 -warmup 4
//	gridsim run -app leanmd -procs 32 -latency 32ms -cells 6 -atoms 12 -steps 8 -warmup 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/bench"
	"gridmdo/internal/metrics"
	"gridmdo/internal/sim"
	"gridmdo/internal/trace"
)

// env is what every experiment runs against: the profile, the progress
// sink, and where its CSV and SVG files go.
type env struct {
	progress       io.Writer
	profile        bench.Profile
	skipRealtime   bool
	csvDir, svgDir string
}

// experiment is one -experiment name and the code that runs it.
type experiment struct {
	name string
	run  func(*env) error
}

// experiments is the one list of experiment names: the -experiment help,
// the lookup and the order of "all" all derive from it.
var experiments = []experiment{
	{"figure3", figure("figure3", bench.Figure3)},
	{"table1", table("table1.csv", func(e *env) (*bench.Table, error) {
		return bench.Table1(e.progress, e.profile, e.skipRealtime)
	})},
	{"figure4", figure("figure4", bench.Figure4)},
	{"table2", table("table2.csv", func(e *env) (*bench.Table, error) {
		return bench.Table2(e.progress, e.profile, e.skipRealtime)
	})},
	{"ablations", ablations},
	{"gridlb-tcp", table("gridlb_tcp.csv", plain(bench.GridLBTCP))},
	{"classes", table("classes.csv", plain(bench.Classes))},
	{"sdsc", table("sdsc.csv", plain(bench.SDSC))},
	{"irregular", table("irregular.csv", plain(bench.Irregular))},
	{"taskfarm-scale", table("taskfarm_scale.csv", plain(bench.TaskfarmScale))},
	{"membership", table("membership.csv", func(e *env) (*bench.Table, error) {
		t, _, err := bench.MembershipRecovery(e.progress, e.profile)
		return t, err
	})},
	{"gate-soak", table("gate_soak.csv", func(e *env) (*bench.Table, error) {
		t, _, err := bench.GateSoak(e.progress, e.profile)
		return t, err
	})},
}

// selectExperiments resolves an -experiment value: one name, or "all"
// for the whole list in order.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	for _, x := range experiments {
		if x.name == name {
			return []experiment{x}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		if err := runApp(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim run: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		experiment   = flag.String("experiment", "all", strings.Join(append(experimentNames(), "all"), "|"))
		fast         = flag.Bool("fast", false, "use the scaled-down fast profile")
		skipRealtime = flag.Bool("skip-realtime", false, "skip wall-clock (host) columns in tables 1 and 2")
		csvDir       = flag.String("csv", "", "also write CSV files into this directory")
		svgDir       = flag.String("svg", "", "also write SVG charts (figures only) into this directory")
		metricsOut   = flag.String("metrics-out", "", "write a JSON metrics snapshot of the real-time runs to this file")
		traceOut     = flag.String("trace-out", "", "write per-run trace snapshots and overlap reports of the real-time runs into this directory (analyze with gridtrace)")
		quiet        = flag.Bool("quiet", false, "suppress per-run progress lines")
	)
	flag.Parse()
	selected, err := selectExperiments(*experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
		os.Exit(2)
	}

	e := &env{
		progress:     os.Stderr,
		profile:      bench.PaperProfile(),
		skipRealtime: *skipRealtime,
		csvDir:       *csvDir,
		svgDir:       *svgDir,
	}
	if *fast {
		e.profile = bench.FastProfile()
	}
	if *metricsOut != "" {
		e.profile.Metrics = metrics.NewRegistry()
	}
	e.profile.TraceDir = *traceOut
	if *quiet {
		e.progress = io.Discard
	}

	for _, x := range selected {
		start := time.Now()
		if err := x.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %s: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", x.name, time.Since(start).Round(time.Millisecond))
	}
	if *metricsOut != "" {
		reg := e.profile.Metrics
		if len(reg.Snapshot().Series) == 0 {
			fmt.Fprintf(os.Stderr, "gridsim: warning: no metrics recorded — metrics cover the real-time/TCP runs (table1, table2), not virtual-time-only experiments\n")
		}
		if err := writeFile(filepath.Dir(*metricsOut), filepath.Base(*metricsOut), reg.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: metrics snapshot: %v\n", err)
			os.Exit(1)
		}
	}
}

// runApp is gridsim run: one application on the virtual-time engine,
// built from the flag groups, program builder and result line gridnode
// uses, with the application's cost model attached. Its flags live on
// their own set, apart from the experiment flags.
func runApp(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridsim run", flag.ExitOnError)
	var (
		topo     appflags.Topology
		app      appflags.App
		traceOut string
	)
	topo.Register(fs)
	app.Sim.Register(fs)
	app.Stencil.Register(fs)
	app.LeanMD.Register(fs)
	fs.StringVar(&app.Name, "app", "stencil", "stencil|leanmd")
	fs.StringVar(&traceOut, "trace-out", "", "write <app>.trace.json and <app>.overlap.txt into this directory (analyze with gridtrace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if app.Name == "taskfarm" {
		return fmt.Errorf("-app taskfarm has no virtual-time run here: a modeled farm needs task and assignment costs, which gridsim -experiment taskfarm-scale carries")
	}
	machine, err := topo.Build()
	if err != nil {
		return err
	}
	built, err := app.Build(appflags.Env{})
	if err != nil {
		return err
	}
	var tr *trace.Tracer
	if traceOut != "" {
		tr = trace.New(topo.Procs)
	}
	v, _, err := bench.Sim(machine, built.Program, sim.Options{Trace: tr})
	if err != nil {
		return err
	}
	appflags.Report(stdout, v)
	if tr == nil {
		return nil
	}
	return bench.WriteTraceArtifacts(traceOut, app.Name, tr, topo.Procs)
}

// plain adapts the common experiment signature.
func plain(fn func(io.Writer, bench.Profile) (*bench.Table, error)) func(*env) (*bench.Table, error) {
	return func(e *env) (*bench.Table, error) { return fn(e.progress, e.profile) }
}

// table runs an experiment that yields one table, renders it, and writes
// its CSV. A failed run still shows what it measured: the table comes
// out before the error does.
func table(csv string, fn func(*env) (*bench.Table, error)) func(*env) error {
	return func(e *env) error {
		t, err := fn(e)
		if t != nil {
			t.Render(os.Stdout)
		}
		if err != nil {
			return err
		}
		return writeFile(e.csvDir, csv, t.CSV)
	}
}

// figure runs a figure experiment, renders it, and writes its CSV and SVG.
func figure(name string, fn func(io.Writer, bench.Profile) (*bench.Figure, error)) func(*env) error {
	return func(e *env) error {
		fig, err := fn(e.progress, e.profile)
		if err != nil {
			return err
		}
		fig.Render(os.Stdout)
		if err := writeFile(e.svgDir, name+".svg", fig.SVG); err != nil {
			return err
		}
		return writeFile(e.csvDir, name+".csv", func(w io.Writer) error { fig.CSV(w); return nil })
	}
}

// ablations runs the DESIGN.md ablation set, one table each.
func ablations(e *env) error {
	for _, a := range []struct {
		csv string
		run func(io.Writer, bench.Profile) (*bench.Table, error)
	}{
		{"ablation_priority.csv", bench.AblationPriority},
		{"ablation_gridlb.csv", bench.AblationGridLB},
		{"ablation_hetero.csv", bench.AblationHetero},
		{"ablation_virtualization.csv", bench.AblationVirtualization},
		{"ablation_bundling.csv", bench.AblationBundling},
	} {
		if err := table(a.csv, plain(a.run))(e); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates dir/name and fills it with fn; an empty dir means the
// output was not asked for.
func writeFile(dir, name string, fn func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
