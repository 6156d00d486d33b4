// Command benchmark is GridMDO's one benchmark: eight workloads that each
// stress a different layer of the system (the driver runs the five that
// BENCHMARK.json names), three end-to-end metrics measured the same way on
// every workload, and a per-layer budget taken from outside the program
// through its public hooks. README.md has the tables.
//
// A parent process runs every workload in a child process of the same
// binary, so heap and GC state do not leak between workloads, peak memory
// is the child's own, and a child that hangs is killed at its deadline and
// counted as a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line; empty runs them all, untraced then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input: payload values, mesh latencies, steal victims, duplicate keys")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, hooks off; 1: per-layer metrics from probes and a traced pass")
	flag.StringVar(&o.out, "out", "", "with every workload: write the full report to this file")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "trace"), "directory for span files and goroutine dumps")
	child := flag.Bool("child", false, "internal: measure -workload in this process")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the tables in spec.go define it")
	compare := flag.Bool("compare", false, "compare two -out reports: -compare a.json b.json")
	flag.Parse()

	switch {
	case *spec:
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *child:
		def, ok := findWorkload(o.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		res := measure(def, runConfig{seed: o.seed}, o.seconds, o.trace == 1, o.traceOut)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	case o.workload != "":
		def, ok := findWorkload(o.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q; have %s", o.workload, workloadNames()))
		}
		res := runChild(def, o)
		printTable(os.Stdout, res.Metrics)
		printErrors(def.Name, res.Errors)
		fmt.Println(driverLine(res, o.trace == 1))
	default:
		os.Exit(runAll(o))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// hostInfo is the provenance block every report carries.
type hostInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Loopback   bool    `json:"loopback"` // sockets never leave the host: not a real link
}

func host(o options) hostInfo {
	h := hostInfo{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Loopback: true,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// workloadReport is one workload's part of a full report.
type workloadReport struct {
	Workload  string        `json:"workload"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	FailFrac  float64       `json:"fail_frac"`
	Errors    []string      `json:"errors,omitempty"`
	EndToEnd  []metricValue `json:"end_to_end"` // untraced pass only
	PerLayer  []metricValue `json:"per_layer"`
}

type report struct {
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

// runAll measures every workload, untraced and then traced, prints both
// tables and writes the report. It returns the process's exit code.
func runAll(o options) int {
	rep := report{Host: host(o)}
	code := 0
	for _, def := range workloads {
		plain, traced := o, o
		plain.trace, traced.trace = 0, 1
		e2e := runChild(def, plain)
		layers := runChild(def, traced)
		wr := workloadReport{
			Workload:  def.Name,
			Attempted: e2e.Attempted + layers.Attempted,
			Failed:    e2e.Failed + layers.Failed,
			Errors:    append(e2e.Errors, layers.Errors...),
			EndToEnd:  e2e.Metrics, PerLayer: layers.Metrics,
		}
		if wr.Attempted > 0 {
			wr.FailFrac = float64(wr.Failed) / float64(wr.Attempted)
		}
		if wr.Failed > 0 || len(wr.Errors) > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, wr)
		fmt.Printf("== %s: %d operations, %d failed\n", def.Name, wr.Attempted, wr.Failed)
		printTable(os.Stdout, e2e.Metrics)
		printTable(os.Stdout, layers.Metrics)
		printErrors(def.Name, wr.Errors)
	}
	h := rep.Host
	fmt.Printf("host: commit %s, %s, %s, %d cores, GOMAXPROCS %d, seed %d; loopback sockets, not a real link\n",
		h.Commit, h.GoVersion, h.CPU, h.Cores, h.GOMAXPROCS, h.Seed)
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

func printErrors(workload string, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", workload, e)
	}
}
