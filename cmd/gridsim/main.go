// Command gridsim regenerates the paper's evaluation artifacts: Figure 3
// and Table 1 (five-point stencil), Figure 4 and Table 2 (LeanMD), and the
// DESIGN.md ablations. Results print as aligned text tables; -csv also
// writes machine-readable files.
//
// Usage:
//
//	gridsim -experiment all                # everything, paper-scale
//	gridsim -experiment figure3 -fast      # scaled-down quick look
//	gridsim -experiment table1 -skip-realtime
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gridmdo/internal/appflags"
	"gridmdo/internal/bench"
	"gridmdo/internal/metrics"
)

func main() {
	var (
		experiment   = flag.String("experiment", "all", "figure3|figure4|table1|table2|ablations|gridlb-tcp|classes|sdsc|irregular|taskfarm-scale|membership|gate-soak|telemetry|sim-scale|all")
		fast         = flag.Bool("fast", false, "use the scaled-down fast profile")
		skipRealtime = flag.Bool("skip-realtime", false, "skip wall-clock (host) columns in tables 1 and 2")
		csvDir       = flag.String("csv", "", "also write CSV files into this directory")
		svgDir       = flag.String("svg", "", "also write SVG charts (figures only) into this directory")
		metricsOut   = flag.String("metrics-out", "", "write a JSON metrics snapshot of the real-time runs to this file")
		jsonOut      = flag.String("json", "", "write the experiment's JSON report to this file (taskfarm-scale, membership, gate-soak, telemetry, sim-scale; e.g. -experiment taskfarm-scale -json BENCH_taskfarm.json)")
		traceOut     = flag.String("trace-out", "", "write per-run trace snapshots and overlap reports of the real-time runs into this directory (analyze with gridtrace)")
		quiet        = flag.Bool("quiet", false, "suppress per-run progress lines")
	)
	var eng appflags.Engine
	eng.Register(flag.CommandLine)
	flag.Parse()
	if err := eng.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut != "" && *experiment == "all" {
		fmt.Fprintln(os.Stderr, "gridsim: -json names one file: pick one experiment")
		os.Exit(2)
	}
	flagSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { flagSet[f.Name] = true })

	profile := bench.PaperProfile()
	if *fast {
		profile = bench.FastProfile()
	}
	// The engine flags steer the sim-scale sweep: -topo pins the machine,
	// -engine seq drops the parallel arms, -engine par narrows them to
	// -sim-workers (the sequential arm always runs — it is the reference
	// the checksums and speedups are measured against), and -pack-cold
	// resizes the big arm's live set.
	if flagSet["topo"] {
		profile.SimScale.Spec = eng.Topo
	}
	if flagSet["engine"] || flagSet["sim-workers"] {
		switch eng.Engine {
		case "seq":
			profile.SimScale.Workers = nil
		case "par":
			profile.SimScale.Workers = []int{eng.Workers}
		}
	}
	if flagSet["pack-cold"] {
		profile.SimScale.Big.PackCap = eng.PackCold
	}
	if *metricsOut != "" {
		profile.Metrics = metrics.NewRegistry()
	}
	profile.TraceDir = *traceOut
	progress := os.Stderr
	if *quiet {
		progress = nil
	}

	run := func(name string) error {
		start := time.Now()
		// Most experiments yield one table, some also a JSON report; the
		// figures and the ablation set render themselves.
		var (
			tbl     *bench.Table
			rep     jsonWriter
			csvName string
			err     error
		)
		warn := func(bad bool, what string) {
			if bad {
				fmt.Fprintln(os.Stderr, "gridsim: WARNING: "+what)
			}
		}
		switch name {
		case "figure3", "figure4":
			figure := bench.Figure3
			if name == "figure4" {
				figure = bench.Figure4
			}
			fig, ferr := figure(progress, profile)
			if ferr != nil {
				return ferr
			}
			fig.Render(os.Stdout)
			if err := writeSVG(*svgDir, name+".svg", fig); err != nil {
				return err
			}
			err = writeCSV(*csvDir, name+".csv", fig.CSV)
		case "table1":
			tbl, err = bench.Table1(progress, profile, *skipRealtime)
			csvName = "table1.csv"
		case "table2":
			tbl, err = bench.Table2(progress, profile, *skipRealtime)
			csvName = "table2.csv"
		case "ablations":
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
				t, aerr := a.run(progress, profile)
				if aerr != nil {
					return aerr
				}
				t.Render(os.Stdout)
				if err := writeCSV(*csvDir, a.csv, t.CSV); err != nil {
					return err
				}
			}
		case "gridlb-tcp":
			tbl, err = bench.GridLBTCP(progress, profile)
			csvName = "gridlb_tcp.csv"
		case "classes":
			tbl, err = bench.Classes(progress, profile)
			csvName = "classes.csv"
		case "irregular":
			tbl, err = bench.Irregular(progress, profile)
			csvName = "irregular.csv"
		case "sdsc":
			tbl, err = bench.SDSC(progress, profile)
			csvName = "sdsc.csv"
		case "taskfarm-scale":
			var r *bench.FarmReport
			tbl, r, err = bench.TaskfarmScale(progress, profile)
			csvName = "taskfarm_scale.csv"
			if r != nil {
				rep = r
				warn(!r.ChecksumsMatch, "taskfarm checksums diverged across configurations")
			}
		case "membership":
			var r *bench.MembershipReport
			tbl, r, err = bench.MembershipRecovery(progress, profile)
			csvName = "membership.csv"
			if r != nil {
				rep = r
				warn(!r.ChecksumsMatch, "membership checksums diverged from the undisturbed baseline")
			}
		case "gate-soak":
			var r *bench.GateReport
			tbl, r, err = bench.GateSoak(progress, profile)
			csvName = "gate_soak.csv"
			if r != nil {
				rep = r
			}
		case "telemetry":
			var r *bench.TelemetryReport
			tbl, r, err = bench.Telemetry(progress, profile)
			csvName = "telemetry.csv"
			if r != nil {
				rep = r
			}
		case "sim-scale":
			var r *bench.SimScaleReport
			tbl, r, err = bench.SimScale(progress, profile)
			csvName = "sim_scale.csv"
			if r != nil {
				rep = r
				warn(!r.ChecksumsMatch, "parallel-engine checksums diverged from the sequential reference")
				warn(!r.Big.WithinBound, "cold-store arm exceeded its heap bound")
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		// A failed soak still shows what it measured: the table and the
		// report come out before the error does.
		if tbl != nil {
			tbl.Render(os.Stdout)
		}
		if *jsonOut != "" {
			if rep == nil && err == nil {
				err = fmt.Errorf("-json: this experiment has no JSON report")
			} else if rep != nil {
				if werr := writeJSON(*jsonOut, rep); err == nil {
					err = werr
				}
			}
		}
		if err == nil && tbl != nil {
			err = writeCSV(*csvDir, csvName, tbl.CSV)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"figure3", "table1", "figure4", "table2", "ablations", "gridlb-tcp", "classes", "sdsc", "irregular", "taskfarm-scale", "membership", "gate-soak", "telemetry", "sim-scale"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		if len(profile.Metrics.Snapshot().Series) == 0 {
			fmt.Fprintf(os.Stderr, "gridsim: warning: no metrics recorded — metrics cover the real-time/TCP runs (table1, table2), not virtual-time-only experiments\n")
		}
		if err := writeJSON(*metricsOut, profile.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: metrics snapshot: %v\n", err)
			os.Exit(1)
		}
	}
}

// jsonWriter is the shape every experiment report and the metrics
// registry share.
type jsonWriter interface{ WriteJSON(io.Writer) error }

// writeJSON dumps a report (the BENCH_*.json artifacts) or the accumulated
// real-time-run registry as indented JSON.
func writeJSON(path string, v jsonWriter) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := v.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSVG(dir, name string, fig *bench.Figure) error {
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
	if err := fig.SVG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(dir, name string, fn func(w io.Writer)) error {
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
	fn(f)
	return f.Close()
}
