package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

// metricValue is one reported number over n repetitions, with their
// median and spread = (third quartile − first quartile) / median. Value is
// the median for a per-layer metric and the good-side decile for an
// end-to-end one (see goodDecile).
type metricValue struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	N        int     `json:"n"`
	Spread   float64 `json:"spread"`
}

// childResult is the one JSON line a child process prints.
type childResult struct {
	Workload  string        `json:"workload"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Errors    []string      `json:"errors,omitempty"`
	Metrics   []metricValue `json:"metrics"`
}

// heapBallast stands in for the application state a real program's chares
// hold. Several workloads have next to none, and with Go's 4 MB minimum heap
// the collector would run every few hundred messages; whether an operation
// lands inside a cycle then decides its time, and medians jump between two
// modes. The ballast's pages are never touched, so they are not resident,
// and a byte slice holds no pointers to mark.
const heapBallast = 64 << 20

// minReps is the fewest timed repetitions a run reports a median of, even
// when they overrun the time it was given.
const minReps = 3

// measure runs the workload in this process: one warm-up repetition,
// checked but not timed, then timed repetitions until seconds have passed.
// Untraced, it reports the end-to-end metrics. Traced, it runs the
// workload's probes and then alternates untraced and traced repetitions,
// and reports the per-layer metrics.
func measure(def workloadDef, cfg runConfig, seconds float64, traced bool, traceOut string) childResult {
	res := childResult{Workload: def.Name}
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)
	r, err := def.New(cfg)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.Errors = append(res.Errors, err.Error())
		return res
	}
	// once runs one repetition and does the failure accounting.
	once := func(traced bool) (rep, bool) {
		// Collect the previous repetition's garbage now, so that no
		// repetition pays for its predecessor inside a timed phase.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := r.run(traced)
		runtime.ReadMemStats(&after)
		if err != nil {
			res.Attempted += r.plannedOps()
			res.Failed += r.plannedOps()
			res.Errors = append(res.Errors, err.Error())
			return p, false
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if !traced {
			p.set("op_time_p50_us", p.opTimeUS)
			p.set("go.cpu_us_per_op", p.cpuUSPerOp())
			p.set("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
			p.set("go.gc_cycles", float64(after.NumGC-before.NumGC))
		}
		fmt.Fprintf(os.Stderr, "%s rep traced=%v: setup %v, %.6g ops/s, op time %.4g us, cpu %.4g us/op\n",
			def.Name, traced, p.setup, p.opsPerS(), p.opTimeUS, p.cpuUSPerOp())
		return p, true
	}

	// A traced run's probes count towards its seconds, so that it takes no
	// longer than an untraced one.
	from := time.Now()
	var probed map[string]float64
	if traced && !cfg.toy {
		probed = def.Probes() // sized for a timing, not for a toy run
	}
	once(false) // warm-up
	if !traced {
		from = time.Now()
	}

	var plain, observed []rep
	deadline := from.Add(time.Duration(seconds * float64(time.Second)))
	for len(plain) < minReps || time.Now().Before(deadline) {
		if len(res.Errors) > minReps {
			break // nothing works; do not spend the deadline finding out again
		}
		if p, ok := once(false); ok {
			plain = append(plain, p)
		}
		if !traced {
			continue
		}
		if p, ok := once(true); ok {
			if n := len(observed); n > 0 {
				observed[n-1].spans = nil // only the last repetition's spans are written out
			}
			observed = append(observed, p)
		}
		if len(plain) >= 1 && len(observed) >= 1 && !time.Now().Before(deadline) {
			break // one pair is enough for the per-layer numbers
		}
	}

	if !traced {
		res.Metrics = endToEndValues(def.Name, plain)
		return res
	}
	res.Metrics = perLayerValues(def.Name, probed, plain, observed)
	if n := len(observed); n > 0 && observed[n-1].spans != nil {
		if err := writeSpans(traceOut, def.Name, observed[n-1].spans); err != nil {
			res.Errors = append(res.Errors, "writing spans: "+err.Error())
		}
	}
	return res
}

func sampleOf(reps []rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = f(&reps[i])
	}
	return out
}

func valueOf(def metricDef, workload string, sample []float64) metricValue {
	m := median(sample)
	return metricValue{Name: def.Name, Unit: def.Unit, Workload: workload,
		Value: m, Median: m, N: len(sample), Spread: spread(sample)}
}

// goodDecile is what a run reports for an end-to-end rate or time: the
// decile of its repetitions on the metric's good side, the 90th percentile
// of a rate and the 10th of a time. The host is shared, and what it does to
// a repetition is one-sided: a neighbour can only make it slower, for
// seconds or for minutes. The median of a run follows those spells (one
// commit read 78 and 152 steps/s in two runs ten minutes apart); the tenth
// of the run the host disturbed least follows the program. A change to the
// program moves every repetition, and so this decile, by its own factor.
func goodDecile(def metricDef, workload string, sample []float64) metricValue {
	v := valueOf(def, workload, sample)
	if def.Better == "higher" {
		v.Value = percentile(sample, 0.9)
	} else {
		v.Value = percentile(sample, 0.1)
	}
	return v
}

// endToEndValues reports the end-to-end metrics a repetition can measure;
// peak_rss_mb only the parent can read.
func endToEndValues(workload string, reps []rep) []metricValue {
	if len(reps) == 0 {
		return nil
	}
	setup, _ := endToEndDef("setup_s")
	rate, _ := endToEndDef("ops_per_s")
	return []metricValue{
		goodDecile(setup, workload, sampleOf(reps, func(r *rep) float64 { return r.setup.Seconds() })),
		goodDecile(rate, workload, sampleOf(reps, (*rep).opsPerS)),
	}
}

// perLayerValues reports every per-layer metric, 0 for a layer the
// workload does not run. A metric both passes measure comes from the
// untraced repetitions.
func perLayerValues(workload string, probed map[string]float64, plain, observed []rep) []metricValue {
	samples := map[string][]float64{}
	for name, v := range probed {
		samples[name] = []float64{v}
	}
	for _, r := range plain {
		for name, v := range r.layer {
			samples[name] = append(samples[name], v)
		}
	}
	fromPlain := map[string]bool{}
	for name := range samples {
		fromPlain[name] = true
	}
	for _, r := range observed {
		for name, v := range r.layer {
			if !fromPlain[name] {
				samples[name] = append(samples[name], v)
			}
		}
	}
	if len(plain) > 0 && len(observed) > 0 {
		u := median(sampleOf(plain, (*rep).opsPerS))
		t := median(sampleOf(observed, (*rep).opsPerS))
		samples["obs.overhead_frac"] = []float64{u/t - 1}
	}
	out := make([]metricValue, 0, len(perLayer))
	for _, def := range perLayer {
		out = append(out, valueOf(def, workload, samples[def.Name]))
	}
	return out
}

// runChild measures one workload in a child process of this binary. The
// child gets three times the time it should need; past that it is sent
// SIGQUIT, its goroutine dump is saved under the trace directory, and the
// run counts as one failed operation.
func runChild(def workloadDef, o options) childResult {
	failed := func(err error) childResult {
		return childResult{Workload: def.Name, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	self, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	cmd := exec.Command(self, "-child", "-workload", def.Name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-trace-out", o.traceOut)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return failed(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// Expected: the measured seconds plus warm-up, reference results,
	// probes and one repetition of overrun, 15 s in all. The driver allows
	// a run 180 s, so the deadline stays below that.
	deadline := 3 * time.Duration((o.seconds+15)*float64(time.Second))
	if deadline > 170*time.Second {
		deadline = 170 * time.Second
	}
	select {
	case err = <-exited:
	case <-time.After(deadline):
		_ = cmd.Process.Signal(syscall.SIGQUIT) // the Go runtime answers with every goroutine's stack
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
		}
		dump := filepath.Join(o.traceOut, def.Name+".goroutines.txt")
		if os.MkdirAll(o.traceOut, 0o755) == nil {
			_ = os.WriteFile(dump, stderr.Bytes(), 0o644)
		}
		return failed(fmt.Errorf("no result after %v; goroutine dump in %s", deadline, dump))
	}
	io.Copy(os.Stderr, &stderr)
	if err != nil {
		return failed(fmt.Errorf("child: %w", err))
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return failed(fmt.Errorf("child output: %w", err))
	}
	if o.trace == 0 && len(res.Metrics) > 0 {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			def, _ := endToEndDef("peak_rss_mb")
			mb := float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
			res.Metrics = append(res.Metrics, metricValue{Name: def.Name, Unit: def.Unit, Workload: res.Workload,
				Value: mb, Median: mb, N: 1})
		}
	}
	return res
}

// driverLine renders the result as the one JSON object the driver reads
// from the last line of standard output.
func driverLine(res childResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	got := map[string]metricValue{}
	for _, m := range res.Metrics {
		got[m.Name] = m
	}
	correct := res.Failed == 0 && len(res.Errors) == 0
	metrics := map[string]value{}
	for _, def := range defs {
		m, ok := got[def.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			correct = false
			continue
		}
		metrics[def.Name] = value{m.Value, def.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		fatal(err) // every value was checked finite above
	}
	return string(line)
}

func printTable(w io.Writer, ms []metricValue) {
	sorted := append([]metricValue(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Workload < sorted[j].Workload })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tmedian\tn\tspread")
	for _, m := range sorted {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.6g\t%d\t%.3f\n", m.Workload, m.Name, m.Value, m.Unit, m.Median, m.N, m.Spread)
	}
	tw.Flush()
}
