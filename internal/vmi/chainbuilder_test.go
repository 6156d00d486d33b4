package vmi

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gridmdo/internal/metrics"
)

// failTest is a failure handler for node n that fails the test: a repair
// the layer should manage must never reach the runtime's failure hook.
func failTest(t *testing.T, n int) func(error) {
	return func(err error) { t.Errorf("node %d: %v", n, err) }
}

// TestChainBuilderFaultsInsideReliable pins fault placement: fault
// devices declared on the builder sit below the reliability layer, inside
// its repair envelope, so a lossy link is repaired by retransmission, no
// failure is reported, and the application sees exactly-once in-order
// delivery.
func TestChainBuilderFaultsInsideReliable(t *testing.T) {
	fd := NewFaultDevice(5, FaultPlan{Drop: 0.3})
	defer fd.Close()
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd}, onFail: failTest(t, 0)},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, onFail: failTest(t, 1)})
	const n = 50
	for i := 0; i < n; i++ {
		if err := p.s0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("msg-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "repaired delivery", func() bool { return len(p.at1()) == n })
	for i, f := range p.at1() {
		if want := fmt.Sprintf("msg-%d", i); string(f.Body) != want {
			t.Fatalf("frame %d = %q, want %q (order broken)", i, f.Body, want)
		}
	}
	if fd.Stats().Dropped == 0 {
		t.Error("30% drop plan dropped nothing")
	}
	if p.s0.Reliable().Stats().Retransmits == 0 {
		t.Error("drops were never repaired by retransmission")
	}
}

// TestChainBuilderInstrumentedSeries checks that building with a registry
// wires the generic per-device flow counters plus each device's own
// series, and that Stack exposes its parts.
func TestChainBuilderInstrumentedSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	fd := NewFaultDevice(9, FaultPlan{Drop: 0.1})
	defer fd.Close()
	p := newRelPair(t,
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, send: []SendDevice{fd}, reg: reg, onFail: failTest(t, 0)},
		relEnd{cfg: ReliableConfig{RTO: 5 * time.Millisecond}, onFail: failTest(t, 1)})
	if p.s0.Metrics() != reg || p.s1.Metrics() != nil {
		t.Error("Stack.Metrics does not report the build registry")
	}
	if p.s0.TCP() == nil || p.s0.Reliable() == nil {
		t.Error("Stack accessors lost the terminal devices")
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := p.s0.Send(&Frame{Src: 0, Dst: 2, Body: []byte(fmt.Sprintf("m-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery", func() bool { return len(p.at1()) == n })
	snap := reg.Snapshot()
	for _, name := range []string{
		"vmi_device_frames_total",
		"vmi_device_bytes_total",
		"vmi_fault_frames_total",
		"vmi_tcp_frames_out_total",
		"vmi_rel_data_sent_total",
		"vmi_rel_delivered_total",
	} {
		if !slices.ContainsFunc(snap.Series, func(s metrics.Sample) bool { return s.Name == name }) {
			t.Errorf("series %s missing from built-with-metrics stack", name)
		}
	}
	if got := snap.Value("vmi_rel_data_sent_total"); got < n {
		t.Errorf("vmi_rel_data_sent_total = %d, want >= %d", got, n)
	}
	// The flow counter for the send-side fault device saw every frame.
	var found bool
	for _, s := range snap.Series {
		if s.Name == "vmi_device_frames_total" &&
			strings.Contains(s.Labels, `device="fault`) &&
			strings.Contains(s.Labels, `dir="send"`) {
			found = true
			if s.Value < n {
				t.Errorf("fault send flow counter = %d, want >= %d", s.Value, n)
			}
		}
	}
	if !found {
		t.Error("no flow counter for the send-side fault device")
	}
}

// TestChainBuilderErrors covers construction-time validation.
func TestChainBuilderErrors(t *testing.T) {
	if _, err := NewChainBuilder(0, nil, nil).Build(); err == nil {
		t.Error("nil route accepted")
	}
	b := NewChainBuilder(0, map[int]string{0: "127.0.0.1:0"}, func(int32) int { return 0 }).
		Reliable(ReliableConfig{}).
		Reliable(ReliableConfig{})
	if _, err := b.Build(); err == nil {
		t.Error("double Reliable accepted")
	}
}
