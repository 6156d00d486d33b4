package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end metric of one workload. worse is how far b
// is from a in the bad direction, as a share of a. The difference counts
// only when it exceeds both the metric's bound and the spread the
// repetitions of either run show; a spread wider than the bound with no
// such difference leaves the pair unresolved, not unchanged.
func verdict(def metricDef, a, b metricValue) (worse float64, status string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if def.Better == "higher" {
			worse = -worse
		}
	}
	noise := max(a.Spread, b.Spread)
	switch {
	case worse > def.Bound && worse > noise:
		return worse, "worse"
	case noise > def.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// compareReports prints, for every workload and end-to-end metric, both
// medians, how much worse b is, the bound and the verdict, and returns 1
// when anything got worse or more operations failed.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal(err)
	}
	inB := map[string]workloadReport{}
	for _, wl := range b.Workloads {
		inB[wl.Workload] = wl
	}
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Workload]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing in b\n", wa.Workload)
			code = 1
			continue
		}
		byName := map[string]metricValue{}
		for _, m := range wb.EndToEnd {
			byName[m.Name] = m
		}
		for _, ma := range wa.EndToEnd {
			def, ok := endToEndDef(ma.Name)
			if !ok {
				continue // a report from before the metric stopped gating
			}
			worse, status := verdict(def, ma, byName[ma.Name])
			if status == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Workload, ma.Name, ma.Value, byName[ma.Name].Value, 100*worse, 100*def.Bound, status)
		}
		status := "ok"
		if wb.FailFrac > wa.FailFrac {
			status, code = "worse", 1
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%.6g\t%.6g\t\t0%%\t%s\n", wa.Workload, wa.FailFrac, wb.FailFrac, status)
	}
	tw.Flush()
	fmt.Fprintf(w, "a: commit %s seed %d; b: commit %s seed %d\n", a.Host.Commit, a.Host.Seed, b.Host.Commit, b.Host.Seed)
	return code
}
