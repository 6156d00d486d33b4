package bench

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
)

func TestTable1RowsMatchPaper(t *testing.T) {
	rows := table1Rows()
	if len(rows) != 18 {
		t.Fatalf("Table 1 has %d rows, want 18", len(rows))
	}
	for _, r := range rows {
		if r.Objects < r.Procs {
			t.Errorf("row %+v has fewer objects than processors", r)
		}
	}
}

// TestTableCSVQuotesCells: a cell holding a comma or a quote reads back
// as one field, so every row has the header's field count.
func TestTableCSVQuotesCells(t *testing.T) {
	tbl := &Table{
		Header: []string{"Phase", "Notes"},
		Rows:   [][]string{{"soak", `377 dup hits, 0 "double" execs`}, {"baseline", "solo tenant"}},
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = len(tbl.Header)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not read back:\n%s\nerr: %v", buf.String(), err)
	}
	if len(recs) != 3 || recs[1][1] != tbl.Rows[0][1] {
		t.Errorf("read back %q, want the header and %q", recs, tbl.Rows)
	}
}

func TestFigure3FastShape(t *testing.T) {
	p := FastProfile()
	var progress bytes.Buffer
	fig, err := Figure3(&progress, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Plots) != 6 {
		t.Fatalf("figure 3 has %d sub-plots, want 6", len(fig.Plots))
	}
	for _, sub := range fig.Plots {
		for _, s := range sub.Series {
			if len(s.X) != len(p.Fig3Latencies) {
				t.Fatalf("%s/%s has %d points", sub.Title, s.Label, len(s.X))
			}
			// Per-step time is (approximately) non-decreasing in latency.
			for i := 1; i < len(s.Y); i++ {
				if float64(s.Y[i]) < 0.95*float64(s.Y[i-1]) {
					t.Errorf("%s/%s: per-step decreased with latency: %v -> %v",
						sub.Title, s.Label, s.Y[i-1], s.Y[i])
				}
			}
		}
		// Paper's headline: at the largest latency, the most-virtualized
		// curve is no slower than the least-virtualized one.
		if len(sub.Series) >= 2 {
			lo := sub.Series[0]
			hi := sub.Series[len(sub.Series)-1]
			last := len(lo.Y) - 1
			if float64(hi.Y[last]) > 1.1*float64(lo.Y[last]) {
				t.Errorf("%s: high virtualization worse at max latency: %v vs %v",
					sub.Title, hi.Y[last], lo.Y[last])
			}
		}
	}
	var out bytes.Buffer
	fig.Render(&out)
	if !strings.Contains(out.String(), "Figure 3") {
		t.Error("render missing title")
	}
	var csv bytes.Buffer
	fig.CSV(&csv)
	if lines := strings.Count(csv.String(), "\n"); lines < 10 {
		t.Errorf("CSV has only %d lines", lines)
	}
	var svg bytes.Buffer
	if err := fig.SVG(&svg); err != nil {
		t.Fatal(err)
	}
	s := svg.String()
	if !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "polyline") {
		t.Error("SVG render missing structure")
	}
	for _, sub := range fig.Plots {
		for _, series := range sub.Series {
			if !strings.Contains(s, series.Label) {
				t.Errorf("SVG missing legend entry %q", series.Label)
			}
		}
	}
	// Degenerate figure renders something valid too.
	var empty bytes.Buffer
	if err := (&Figure{}).SVG(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "<svg") {
		t.Error("empty figure SVG invalid")
	}
}

func TestFigure4FastShape(t *testing.T) {
	p := FastProfile()
	fig, err := Figure4(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	series := fig.Plots[0].Series
	if len(series) != 6 {
		t.Fatalf("%d series, want 6", len(series))
	}
	// Scaling at the lowest latency: more processors, faster steps
	// (through 32 PEs; the paper sees stagnation at 64).
	for i := 1; i < 5; i++ {
		if series[i].Y[0] >= series[i-1].Y[0] {
			t.Errorf("no speedup from %s to %s: %v vs %v",
				series[i-1].Label, series[i].Label, series[i-1].Y[0], series[i].Y[0])
		}
	}
	// Latency impact: on 2 PEs, 256ms barely matters relative to the
	// ~4s step; each curve is non-decreasing.
	two := series[0]
	if ratio := float64(two.Y[len(two.Y)-1]) / float64(two.Y[0]); ratio > 1.35 {
		t.Errorf("2-PE step time grew %.2fx across the sweep; paper sees almost no impact", ratio)
	}
	for _, s := range series {
		for i := 1; i < len(s.Y); i++ {
			if float64(s.Y[i]) < 0.95*float64(s.Y[i-1]) {
				t.Errorf("%s: per-step decreased with latency", s.Label)
			}
		}
	}
}

func TestTable1FastWithRealtime(t *testing.T) {
	if testing.Short() {
		t.Skip("realtime columns are wall-clock heavy")
	}
	p := FastProfile()
	// Shrink further: the structure matters here, not the absolute scale.
	p.Stencil.Width, p.Stencil.Height = 256, 256
	p.Stencil.Steps, p.Stencil.Warmup = 6, 2
	tbl, err := Table1(nil, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 18 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row %v", row)
		}
		for _, c := range row {
			if c == "" {
				t.Fatalf("empty cell in %v", row)
			}
		}
	}
	var out bytes.Buffer
	tbl.Render(&out)
	if err := tbl.CSV(&out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("empty render")
	}
}

func TestTable2FastWithRealtime(t *testing.T) {
	if testing.Short() {
		t.Skip("realtime columns are wall-clock heavy")
	}
	p := FastProfile()
	tbl, err := Table2(nil, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestAblations(t *testing.T) {
	p := FastProfile()
	prio, err := AblationPriority(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(prio.Rows) != 3 {
		t.Errorf("priority ablation rows = %d", len(prio.Rows))
	}
	lb, err := AblationGridLB(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Rows) != 1 {
		t.Errorf("gridlb ablation rows = %d", len(lb.Rows))
	}
	virt, err := AblationVirtualization(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(virt.Rows) < 3 {
		t.Errorf("virtualization ablation rows = %d", len(virt.Rows))
	}
	het, err := AblationHetero(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(het.Rows) != 1 {
		t.Errorf("hetero ablation rows = %d", len(het.Rows))
	}
	// With cluster 1 at half speed and no balancing, steps are gated by
	// the slow cluster; any balancing should not be slower than none.
	var vals [3]float64
	for i := 0; i < 3; i++ {
		fmt.Sscanf(het.Rows[0][3+i], "%f", &vals[i])
	}
	if vals[1] > vals[0]*1.15 {
		t.Errorf("greedy (%v) much worse than none (%v) on heterogeneous clusters", vals[1], vals[0])
	}

}

func TestSDSCPrediction(t *testing.T) {
	p := FastProfile()
	tbl, err := SDSC(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("sdsc rows = %d", len(tbl.Rows))
	}
	// The paper's §6 prediction: stencil penalized, LeanMD fine. Rows
	// alternate stencil/LeanMD.
	for i, row := range tbl.Rows {
		var penalty float64
		fmt.Sscanf(row[4], "%fx", &penalty)
		if i%2 == 0 { // stencil
			if penalty < 1.3 {
				t.Errorf("stencil row %v: penalty %.2f, expected severe", row, penalty)
			}
		} else { // LeanMD
			if penalty > 1.2 {
				t.Errorf("LeanMD row %v: penalty %.2f, expected ~1x", row, penalty)
			}
		}
	}
}

func TestIrregularExperiment(t *testing.T) {
	p := FastProfile()
	tbl, err := Irregular(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("irregular rows = %d", len(tbl.Rows))
	}
	// At each latency the most-virtualized column should not exceed the
	// least-virtualized one (the generality claim's quantitative core).
	for _, row := range tbl.Rows {
		var lo, hi float64
		fmt.Sscanf(row[1], "%f", &lo)
		fmt.Sscanf(row[3], "%f", &hi)
		if hi > lo*1.1 {
			t.Errorf("row %v: 256 chunks (%v) worse than 8 chunks (%v)", row[0], hi, lo)
		}
	}
}

func TestClassesTaxonomy(t *testing.T) {
	p := FastProfile()
	tbl, err := Classes(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("classes rows = %d", len(tbl.Rows))
	}
	// At the largest latency the tightly-coupled stencil must suffer the
	// most and the task farm the least — the paper's §1 taxonomy.
	last := tbl.Rows[len(tbl.Rows)-1]
	var stencilX, mdX, farmX float64
	fmt.Sscanf(last[1], "%fx", &stencilX)
	fmt.Sscanf(last[2], "%fx", &mdX)
	fmt.Sscanf(last[3], "%fx", &farmX)
	if !(stencilX > mdX) {
		t.Errorf("stencil slowdown %v not above LeanMD %v", stencilX, mdX)
	}
	if farmX > 2.5 {
		t.Errorf("task farm slowdown %v; coarse prefetched farms should stay near 1x", farmX)
	}
}

// TestGridLBTCPExperiment exercises the two-process grid-LB experiment:
// the balancing round (stats, PUP'd evict/arrive payloads, resume) runs
// over real TCP sockets between the two runtimes and moves blocks. The
// per-step times are wall-clock, so their ratio is logged, not asserted.
func TestGridLBTCPExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	p := FastProfile()
	p.Stencil.Width, p.Stencil.Height = 256, 256
	p.Stencil.Steps, p.Stencil.Warmup = 8, 3
	p.Metrics = metrics.NewRegistry()
	tbl, err := GridLBTCP(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("gridlb-tcp rows = %d", len(tbl.Rows))
	}
	var none, grid float64
	fmt.Sscanf(tbl.Rows[0][3], "%f", &none)
	fmt.Sscanf(tbl.Rows[0][4], "%f", &grid)
	if none <= 0 || grid <= 0 {
		t.Fatalf("non-positive per-step times in %v", tbl.Rows[0])
	}
	snap := p.Metrics.Snapshot()
	if rounds := snap.Value("core_lb_rounds_total"); rounds <= 0 {
		t.Errorf("core_lb_rounds_total = %d, want > 0", rounds)
	}
	if moves := snap.Value("core_lb_moves_total"); moves <= 0 {
		t.Errorf("core_lb_moves_total = %d, want > 0", moves)
	}
	t.Logf("per-step: none %.3fms, grid %.3fms (%.2fx)", none, grid, grid/none)
}

// TestStencilTCPAgreesWithDelayDevice is the miniature Table-1 agreement
// criterion: the TCP pathway and the in-process delay device should give
// similar per-step times for the same configuration.
func TestStencilTCPAgreesWithDelayDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	mk := stencilProgram(stencil.Params{Width: 256, Height: 256, Steps: 10, Warmup: 4}, 64)
	lat := 2 * time.Millisecond
	rt, err := hostOn[stencil.Result](4, 1, lat, mk)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := hostOn[stencil.Result](4, 2, lat, mk)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(tcp.PerStep) / float64(rt.PerStep)
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("TCP/delay per-step ratio %.2f (tcp=%v delay=%v): pathways disagree badly",
			ratio, tcp.PerStep, rt.PerStep)
	}
	// Both observed the same numerics. (The reduction folds partials in
	// arrival order, so the float sums may differ in the last bits.)
	if rel := (rt.Checksum - tcp.Checksum) / rt.Checksum; rel > 1e-12 || rel < -1e-12 {
		t.Errorf("checksums differ across pathways: %v vs %v", rt.Checksum, tcp.Checksum)
	}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{PaperProfile(), FastProfile()} {
		if p.Stencil.Model == nil || p.MD.Model == nil {
			t.Errorf("%s profile missing cost models", p.Name)
		}
		if len(p.Fig3Latencies) == 0 || len(p.Fig4Latencies) == 0 {
			t.Errorf("%s profile missing sweeps", p.Name)
		}
		if p.RealLatency != 1725*time.Microsecond {
			t.Errorf("%s profile real latency %v, want the paper's 1.725ms", p.Name, p.RealLatency)
		}
	}
	if pairCount(PaperProfile().MD) != 3024 {
		t.Errorf("paper MD pair count = %d, want 3024", pairCount(PaperProfile().MD))
	}
}

// TestProfileFieldsVary: every field of the experiment-size configs is
// set differently by the two profiles. A value both profiles share is a
// constant of its experiment, except the two fields TestGateSoakSmoke
// varies.
func TestProfileFieldsVary(t *testing.T) {
	shared := map[string]bool{"GateConfig.PacedEvery": true, "GateConfig.FloodClients": true}
	paper, fast := PaperProfile(), FastProfile()
	for _, pair := range [][2]any{
		{paper.Farm, fast.Farm},
		{paper.Gate, fast.Gate},
		{paper.Membership, fast.Membership},
	} {
		a, b := reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1])
		for i := 0; i < a.NumField(); i++ {
			key := a.Type().Name() + "." + a.Type().Field(i).Name
			switch same := reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()); {
			case same && !shared[key]:
				t.Errorf("both profiles set %s to %v: make it a constant of its experiment", key, a.Field(i))
			case !same && shared[key]:
				t.Errorf("the profiles now set %s differently: drop it from the shared list", key)
			}
		}
	}
}

func TestRunnersRejectBadInput(t *testing.T) {
	if _, err := simOn[stencil.Result](4, 0, stencilProgram(FastProfile().Stencil, 5), sim.Options{}); err == nil {
		t.Error("non-square virtualization accepted")
	}
	if _, err := Host(3, 2, 0, nil); err == nil {
		t.Error("odd PE count accepted for two-node run")
	}
}

// TestMembershipRecoveryFast smokes the membership experiment at the
// fast-profile scale: one seed, one kill, one drain, every disturbed run
// reproducing the undisturbed checksum.
func TestMembershipRecoveryFast(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster runs; skipped in -short")
	}
	p := FastProfile()
	var progress bytes.Buffer
	tbl, rep, err := MembershipRecovery(&progress, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Kill) != len(p.Membership.Seeds) || len(rep.Drain) != len(p.Membership.Seeds) {
		t.Fatalf("got %d kill / %d drain points, want %d each",
			len(rep.Kill), len(rep.Drain), len(p.Membership.Seeds))
	}
	if !rep.ChecksumsMatch {
		t.Error("a disturbed run diverged from the undisturbed checksum")
	}
	for _, pt := range rep.Kill {
		if pt.DetectMS <= 0 || pt.RehomeMS < pt.DetectMS {
			t.Errorf("kill point has detect=%v rehome=%v", pt.DetectMS, pt.RehomeMS)
		}
		if pt.Evacuated == 0 {
			t.Error("kill re-homed no elements")
		}
	}
	for _, pt := range rep.Drain {
		if pt.DrainMS <= 0 {
			t.Errorf("drain point has drain=%v", pt.DrainMS)
		}
		if pt.Evacuated == 0 {
			t.Error("drain evacuated no elements")
		}
	}
	if len(tbl.Rows) != 2*len(p.Membership.Seeds) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), 2*len(p.Membership.Seeds))
	}
}
